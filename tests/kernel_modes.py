"""Kernel-backend activation for the differential suites.

The matrix and equivalence tests sweep ``REPRO_KERNELS`` backends; this
helper makes the ``"numba"`` cell runnable on *every* environment:

* with numba installed, :func:`kernel_mode` simply activates the real
  compiled kernels (``kernels.use_kernels("numba")``);
* without numba, it substitutes the **un-jitted loop implementations**
  (the exact functions ``numba.njit`` would compile) for the jitted
  slots and marks the backend active — so the numba dispatch path and
  its loop arithmetic are differentially tested against numpy even
  where the compiler is absent, and the suite proves the fallback
  machinery green rather than silently skipping.
"""

from __future__ import annotations

import contextlib

from repro.core.batch import kernels

#: The kernel cells every differential sweep covers.
KERNEL_MODES = ("numpy", "numba")

_JIT_SLOTS = (
    ("_deadline_layer_jit", "_deadline_layer_loops"),
    ("_lower_hull_jit", "_lower_hull_loops"),
    ("_shard_tick_jit", "_shard_tick_loops"),
)


@contextlib.contextmanager
def kernel_mode(name: str):
    """Activate kernel backend ``name`` for the enclosed block."""
    if name == "numpy" or kernels.HAVE_NUMBA:
        with kernels.use_kernels(name):
            yield
        return
    saved = [getattr(kernels, jit) for jit, _ in _JIT_SLOTS]
    saved_active = kernels._active
    for jit, loops in _JIT_SLOTS:
        setattr(kernels, jit, getattr(kernels, loops))
    kernels._active = "numba"
    try:
        yield
    finally:
        for (jit, _), value in zip(_JIT_SLOTS, saved):
            setattr(kernels, jit, value)
        kernels._active = saved_active
