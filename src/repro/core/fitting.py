"""Least-squares fitting of parametric functions to partial learning curves.

The paper (§2.1.1): *"We attain the values for the function parameters
using the least squares regression of the fitting."*  The fit runs once
per epoch per model, so it has to be negligible next to training.  A
family that declares its linear structure
(:class:`~repro.core.parametric.Separable`: the paper's ``exp3``,
``pow3``, ``log2``, ``ilog2``) is solved by variable projection — for a
fixed nonlinear parameter the best bounded linear parameters are closed
form, which leaves a one-dimensional search evaluated a grid at a time.
That solve has no starting point and no iteration history: the result
is a pure function of the curve, which is what keeps a seeded run
identical across backends, cache states and resume points.  The
families with two nonlinear parameters fall back to bounded
trust-region least squares, and ``scipy.optimize`` is imported only
when one of them is first fitted.  Either way a failed or degenerate
fit is "no prediction available this epoch" rather than an error — the
engine simply lets training continue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.parametric import ParametricFunction

__all__ = ["CurveFit", "fit_curve", "FitError", "RidgeFit", "ridge_lstsq"]


class FitError(RuntimeError):
    """Raised by :func:`fit_curve` when ``strict=True`` and the fit fails."""


@dataclass(frozen=True)
class CurveFit:
    """Result of fitting a parametric family to a partial learning curve.

    Attributes
    ----------
    function:
        The fitted family.
    theta:
        Fitted parameter vector.
    residual_norm:
        Euclidean norm of the residuals at the solution.
    rmse:
        Root-mean-square error over the fitted points.
    n_points:
        Number of curve points used.
    """

    function: ParametricFunction
    theta: tuple
    residual_norm: float
    rmse: float
    n_points: int

    def predict(self, x) -> np.ndarray | float:
        """Evaluate the fitted curve at epoch(s) ``x``."""
        result = self.function(x, *self.theta)
        if np.ndim(x) == 0:
            return float(result)
        return result


def fit_curve(
    function: ParametricFunction,
    epochs: Sequence[float],
    fitness: Sequence[float],
    *,
    strict: bool = False,
) -> CurveFit | None:
    """Fit ``function`` to the observed ``(epochs, fitness)`` curve.

    Parameters
    ----------
    function:
        Parametric family to fit.
    epochs, fitness:
        Observed partial learning curve; must have equal length of at
        least ``function.n_params`` points (otherwise the system is
        underdetermined and ``None`` is returned).
    strict:
        When true, raise :class:`FitError` instead of returning ``None``
        on failure.

    Returns
    -------
    CurveFit or None
        ``None`` signals "cannot produce a prediction from this curve";
        callers (the prediction engine) treat it as not-yet-converged.
    """
    x = np.asarray(epochs, dtype=float)
    y = np.asarray(fitness, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(
            f"epochs and fitness must be equal-length 1-D sequences, "
            f"got shapes {x.shape} and {y.shape}"
        )

    def fail(reason: str) -> None:
        if strict:
            raise FitError(f"cannot fit {function.name}: {reason}")
        return None

    if len(x) < function.n_params:
        return fail(f"need >= {function.n_params} points, have {len(x)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return fail("curve contains non-finite values")

    theta = function.guess(x, y)
    if theta is None:
        return fail("no finite parameters fit the curve")
    if function.separable is None:
        # no linear structure declared: the guess is only a start
        try:
            theta = _trust_region(function, x, y, theta)
        except Exception as exc:  # a4nn: noqa(NUM001) -- scipy's failure surface is unbounded; fail() converts to the engine's explicit no-prediction path (or raises under strict=True)
            return fail(f"optimizer error: {exc}")
    if not np.all(np.isfinite(theta)):
        return fail("solver returned non-finite parameters")

    residual = function.fn(x, *theta) - y
    if not np.all(np.isfinite(residual)):
        return fail("fitted curve is non-finite on the data")

    return CurveFit(
        function=function,
        theta=tuple(float(t) for t in theta),
        residual_norm=float(np.linalg.norm(residual)),
        rmse=float(np.sqrt(np.mean(residual**2))),
        n_points=len(x),
    )


def _trust_region(function: ParametricFunction, x, y, theta0) -> np.ndarray:
    """Bounded trust-region refinement of ``theta0`` (families with no projection)."""
    from scipy.optimize import least_squares  # 0.5 s and 40 MiB: paid by the first such fit, not by every import

    def residuals(theta: np.ndarray) -> np.ndarray:
        res = function.fn(x, *theta) - y
        # Penalize non-finite model output heavily but finitely so the
        # trust-region step can recover.
        return np.where(np.isfinite(res), res, 1e6)

    return least_squares(
        residuals,
        np.asarray(theta0, dtype=float),
        bounds=(np.asarray(function.lower), np.asarray(function.upper)),
        method="trf",
        max_nfev=200,
    ).x


@dataclass(frozen=True)
class RidgeFit:
    """Closed-form ridge least-squares solution ``y ~ X @ theta``.

    Attributes
    ----------
    theta:
        Fitted coefficient vector (one entry per feature column).
    rmse:
        Root-mean-square training residual.
    n_points:
        Number of rows fitted.
    gram_inv:
        Inverse of the regularized Gram matrix ``X^T X + ridge * I``
        (row-major nested tuples), kept so callers can form the ridge
        predictive variance for a new point.
    """

    theta: tuple
    rmse: float
    n_points: int
    gram_inv: tuple

    def predict(self, x) -> np.ndarray | float:
        """Evaluate the fitted linear model on feature row(s) ``x``."""
        result = np.asarray(x, dtype=float) @ np.asarray(self.theta)
        if result.ndim == 0:
            return float(result)
        return result

    def leverage(self, x) -> float:
        """Ridge leverage ``x^T (X^T X + ridge I)^{-1} x`` of one row.

        The standard predictive-variance scale for a linear model: the
        error of a new prediction is roughly
        ``rmse * sqrt(1 + leverage)``.  Near zero inside the training
        cloud; grows rapidly for extrapolated points, where the training
        RMSE alone badly understates the true uncertainty.
        """
        row = np.asarray(x, dtype=float)
        return float(row @ np.asarray(self.gram_inv) @ row)


def ridge_lstsq(
    features: Sequence[Sequence[float]],
    targets: Sequence[float],
    *,
    ridge: float = 1e-3,
) -> RidgeFit | None:
    """Solve ridge-regularized least squares in closed form.

    Unlike :func:`fit_curve` this is linear in the parameters, so the
    normal equations ``(X^T X + ridge * I) theta = X^T y`` give the exact
    minimizer deterministically — no iterative optimizer, no tolerance
    knobs, bit-identical across runs for identical inputs.  Used by the
    cross-architecture fitness predictor, which refits on every lineage
    commit and therefore needs the solve to be cheap and reproducible.

    Returns ``None`` when the system is empty or numerically degenerate
    (non-finite inputs, singular regularized Gram matrix) — callers treat
    that as "no prediction available yet".
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError(
            f"features must be (n, k) and targets (n,), got {x.shape} and {y.shape}"
        )
    if ridge < 0.0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    if x.shape[0] == 0:
        return None
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return None
    gram = x.T @ x + ridge * np.eye(x.shape[1])
    moment = x.T @ y
    try:
        theta = np.linalg.solve(gram, moment)
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(gram_inv))):
        return None
    residual = x @ theta - y
    return RidgeFit(
        theta=tuple(float(t) for t in theta),
        rmse=float(np.sqrt(np.mean(residual**2))),
        n_points=int(x.shape[0]),
        gram_inv=tuple(tuple(float(v) for v in row) for row in gram_inv),
    )
