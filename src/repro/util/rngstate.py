"""Serialize/restore :class:`numpy.random.Generator` bit-generator state.

Used by the checkpoint layer (:mod:`repro.engine.checkpoint`), which
persists every generator of a session into a bundle.  State round-trips
exactly: a restored generator continues the stream bit-for-bit from where
the source stopped.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["generator_state", "generator_from_state"]


def generator_state(rng: np.random.Generator) -> dict[str, Any]:
    """The JSON-serializable bit-generator state of ``rng``."""
    return _plain(rng.bit_generator.state)


def generator_from_state(state: dict[str, Any]) -> np.random.Generator:
    """A fresh generator whose stream continues exactly from ``state``.

    Raises :class:`ValueError` when the state names a bit generator this
    numpy build does not provide.
    """
    bit_cls = getattr(np.random, state["bit_generator"], None)
    if bit_cls is None:
        raise ValueError(f"unknown bit generator {state['bit_generator']!r}")
    bit_generator = bit_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _plain(value: Any) -> Any:
    """Recursively strip numpy scalar/array types for JSON round-tripping."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value
