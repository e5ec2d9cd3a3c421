"""The solver ``fit_curve`` ran before variable projection, kept as the oracle.

A cold, bounded ``scipy.optimize.least_squares(method="trf")`` with a
finite-difference Jacobian from a heuristic start, exactly as
``repro.core.fitting.fit_curve`` ran it for every family up to PR 18.
The separable families no longer carry a start in ``src/``, so theirs
live here.  Used by ``tests/test_properties.py`` (the projected fit is
never worse) and ``benchmarks/test_same_science.py`` (Algorithm 1 stops
at the same epoch); nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from repro.core.engine import PredictionEngine
from repro.core.fitting import CurveFit
from repro.core.parametric import ParametricFunction

__all__ = ["trf_fit", "TRFEngine", "sse_above"]

# residuals below the rounding of a percentage are zero to both solvers
_SSE_FLOOR = 1e-20


def sse_above(new: CurveFit, old: CurveFit) -> bool:
    """Whether ``new`` fits worse than ``old`` by more than 1e-6 relative."""
    return new.residual_norm**2 > (1.0 + 1e-6) * old.residual_norm**2 + _SSE_FLOOR


def _asymptote(y: np.ndarray) -> float:
    gain = max(float(y[-1] - y[max(0, len(y) - 3)]), 0.0) if len(y) >= 2 else 0.0
    return float(y[-1]) + gain + 1.0


_STARTS = {
    "exp3": lambda x, y: (_asymptote(y), 1.5, float(x[0])),
    "pow3": lambda x, y: (_asymptote(y), max(float(y[-1] - y[0]), 1.0), 0.5),
    "log2": lambda x, y: (float(y[0]), max(float(y[-1] - y[0]), 0.1)),
    "ilog2": lambda x, y: (_asymptote(y), max(float(y[-1] - y[0]), 0.1)),
}


def trf_fit(function: ParametricFunction, epochs, fitness) -> CurveFit | None:
    """The pre-projection ``fit_curve``: ``None`` where it returned ``None``."""
    x = np.asarray(epochs, dtype=float)
    y = np.asarray(fitness, dtype=float)
    if len(x) < function.n_params or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return None
    lower, upper = np.asarray(function.lower), np.asarray(function.upper)
    start = _STARTS.get(function.name, function.initial_guess)(x, y)

    def residuals(theta):
        res = function.fn(x, *theta) - y
        return np.where(np.isfinite(res), res, 1e6)

    solution = least_squares(
        residuals,
        np.clip(np.asarray(start, dtype=float), lower + 1e-9, upper - 1e-9),
        bounds=(lower, upper),
        method="trf",
        max_nfev=200,
    )
    fitted = function.fn(x, *solution.x)
    if not (np.all(np.isfinite(solution.x)) and np.all(np.isfinite(fitted))):
        return None
    return CurveFit(
        function=function,
        theta=tuple(float(t) for t in solution.x),
        residual_norm=float(np.linalg.norm(solution.fun)),
        rmse=float(np.sqrt(np.mean((fitted - y) ** 2))),
        n_points=len(x),
    )


class TRFEngine(PredictionEngine):
    """A :class:`PredictionEngine` whose per-epoch fit is the old solver."""

    def fit(self, fitness_histories) -> list:
        """The old solver's fit of each row of a stack of equal-length histories."""
        n = np.shape(fitness_histories)[1]
        if n < self.config.c_min:
            return [None] * len(fitness_histories)
        return [trf_fit(self.function, np.arange(1, n + 1), row) for row in fitness_histories]
