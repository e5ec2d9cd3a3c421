"""Lightweight argument validation helpers.

The workflow accepts user configuration at many entry points (prediction
engine settings, NAS settings, dataset settings).  These helpers give
uniform, early, human-readable errors instead of deep numpy stack traces.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = [
    "ValidationError",
    "ensure_known_keys",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in_range",
    "ensure_probability",
    "ensure_finite",
]


class ValidationError(ValueError):
    """Raised when a user-supplied configuration value is invalid."""


def ensure_known_keys(payload: dict, cls: type, section: str) -> dict:
    """Require a stored ``section`` to be an object whose every key is a
    field of dataclass ``cls``."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{section} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValidationError(f"unknown key in {section}: {', '.join(unknown)}")
    return payload


def ensure_positive(value: float, name: str) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    return value


def ensure_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Require ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    ok = low <= value <= high if inclusive else low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValidationError(f"{name} must be in {bounds}, got {value!r}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``."""
    return ensure_in_range(value, name, 0.0, 1.0)


def ensure_finite(value: float, name: str) -> float:
    """Require a finite float (no NaN/inf)."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value
