"""Compute-dtype policy for the NumPy NN framework.

All dtype decisions in :mod:`repro.nn` flow through this module: layers,
initializers, and serialization accept an optional ``dtype`` and resolve
it here instead of hard-coding ``np.float32``/``np.float64``.  The
workflow trains every run in float32 (roughly halving BLAS time and
memory on the conv gather/GEMM hot loops against float64): the
orchestrator casts the dataset and passes the dtype down through the
decoder into every layer.

The framework-level default remains float64, so a bare ``Conv2D(...)``
and the gradient checks run in double precision; float64 is also the
second leg of the dtype checks.

A width baked in anywhere else in ``repro.nn`` fails the tests that run
both dtypes (``tests/test_evalcache.py::TestDtypePolicy``, the float64
gradient checks), so no lint rule polices the seam.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SUPPORTED_DTYPES", "DEFAULT_DTYPE", "resolve_dtype", "dtype_label"]

#: Dtypes the compute policy accepts.  float16 stays out: the trainer's
#: loss/accuracy accumulations are not numerically safe in half precision.
SUPPORTED_DTYPES = ("float32", "float64")

#: Framework-level default (backward compatible with the pre-policy code).
DEFAULT_DTYPE = np.dtype("float64")


def resolve_dtype(spec=None, *, default=None) -> np.dtype:
    """Resolve a user-facing dtype spec to a concrete ``np.dtype``.

    Parameters
    ----------
    spec:
        ``None`` (use the default), a string (``"float32"``/``"float64"``),
        or anything ``np.dtype`` accepts.
    default:
        What ``None`` resolves to; defaults to :data:`DEFAULT_DTYPE`.

    Raises
    ------
    ValueError
        If the resolved dtype is not in :data:`SUPPORTED_DTYPES`.
    """
    if spec is None:
        return DEFAULT_DTYPE if default is None else resolve_dtype(default)
    dtype = np.dtype(spec)
    if dtype.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype.name!r}; "
            f"supported: {', '.join(SUPPORTED_DTYPES)}"
        )
    return dtype


def dtype_label(spec) -> str:
    """Canonical string label for a dtype spec (for configs and cache keys)."""
    return resolve_dtype(spec).name
