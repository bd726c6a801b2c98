"""Small argument-validation helpers shared across the library.

The public API validates eagerly and raises ``ValueError`` with the offending
name and value, so user errors surface at construction time rather than deep
inside a DP sweep.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "require_positive",
    "require_nonnegative",
    "require_in_range",
    "require_fields",
    "require_list",
]


def require_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value > 0``; return the value."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value >= 0``; return the value."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def require_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Raise ``ValueError`` unless ``lo <= value <= hi``; return the value."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return value


def require_fields(name: str, data: object, cls) -> dict:
    """Raise ``ValueError`` unless ``data`` is a dict shaped like ``cls``.

    The decode-boundary check of the JSON loaders: ``data`` may carry no
    key that dataclass ``cls`` lacks, and must carry every field without
    a default.  ``name`` says where in the document ``data`` sits
    (``"trace requests[3]"``).  Returns ``data``.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{name} must be a JSON object, got {type(data).__name__}"
        )
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{name} has unknown field(s) {', '.join(unknown)}")
    missing = [
        f.name for f in fields
        if f.name not in data and f.default is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"{name} is missing field(s) {', '.join(missing)}")
    return data


def require_list(name: str, value: object) -> list:
    """Raise ``ValueError`` unless ``value`` is a list; return it."""
    if not isinstance(value, list):
        raise ValueError(
            f"{name} must be a JSON list, got {type(value).__name__}"
        )
    return value
