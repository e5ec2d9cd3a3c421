"""Shared utilities for the A4NN reproduction.

This subpackage provides the low-level plumbing used throughout the
library: deterministic random-number management (:mod:`repro.utils.rng`),
structured logging (:mod:`repro.utils.logging`), wall-clock helpers
(:mod:`repro.utils.timing`), JSON/NPZ persistence helpers
(:mod:`repro.utils.io`), and argument validation
(:mod:`repro.utils.validation`).
"""

from repro.utils.rng import RngStream, derive_rng, spawn_seeds
from repro.utils.timing import Stopwatch, format_hours
from repro.utils.validation import (
    ensure_in_range,
    ensure_positive,
    ValidationError,
)
from repro.utils.io import (
    atomic_write_json,
    read_json,
    atomic_write_npz,
    read_npz,
)

__all__ = [
    "RngStream",
    "derive_rng",
    "spawn_seeds",
    "Stopwatch",
    "format_hours",
    "ensure_in_range",
    "ensure_positive",
    "ValidationError",
    "atomic_write_json",
    "read_json",
    "atomic_write_npz",
    "read_npz",
]
