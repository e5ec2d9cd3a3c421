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

Models trained in lockstep are fitted as one ``(M, n)`` stack: the
search, the clip of the estimates, the residuals (one family call), the
validity checks and the RMSE all run on the whole stack, and every
reduction runs along a row, so each row's fit is the one it gets alone,
byte for byte.
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
    fitness,
    *,
    strict: bool = False,
) -> list | CurveFit | None:
    """Fit ``function`` to each observed ``(epochs, fitness[i])`` curve.

    Parameters
    ----------
    function:
        Parametric family to fit.
    epochs, fitness:
        ``fitness`` is a ``(M, n)`` stack of observed partial learning
        curves, all measured at the ``n`` ``epochs``; a 1-D ``fitness``
        is the stack of one.  A curve needs at least
        ``function.n_params`` points (otherwise the system is
        underdetermined and its fit is ``None``).
    strict:
        When true, raise :class:`FitError` instead of returning ``None``
        for a curve that fails.

    Returns
    -------
    list of CurveFit or None, or one of them for a 1-D ``fitness``
        ``None`` signals "cannot produce a prediction from this curve";
        callers (the prediction engine) treat it as not-yet-converged.
        A curve's fit is the one it gets alone, byte for byte: its
        ``residual_norm`` is its own row's 1-D ``np.linalg.norm``, and
        under ``strict`` the error raised is the first failing row's,
        in row order.
    """
    x = np.asarray(epochs, dtype=float)
    y = np.asarray(fitness, dtype=float)
    if y.ndim == 1 and x.shape == y.shape:
        return fit_curve(function, x, y[None], strict=strict)[0]
    if x.ndim != 1 or y.ndim != 2 or y.shape[1:] != x.shape:
        raise ValueError(
            f"epochs and fitness must be equal-length 1-D sequences, or fitness "
            f"a stack of such rows, got shapes {x.shape} and {y.shape}"
        )
    if len(x) < function.n_params:
        short = f"need >= {function.n_params} points, have {len(x)}"
        return _outcome(function, [short] * len(y), strict)

    finite = (np.isfinite(y).all(axis=1) & np.isfinite(x).all()).tolist()
    usable = [i for i, ok in enumerate(finite) if ok]
    theta = np.full((len(y), function.n_params), np.nan)
    if usable:
        theta[usable] = function.guess(x, y[usable])
    reasons: list = [None if ok else "curve contains non-finite values" for ok in finite]
    if function.separable is None:
        # no linear structure declared: the guess is only a start
        for i in usable:
            try:
                theta[i] = _trust_region(function, x, y[i], theta[i])
            except Exception as exc:  # a4nn: noqa(NUM001) -- scipy's failure surface is unbounded; the row gets the engine's explicit no-prediction path (or raises under strict=True)
                theta[i] = np.nan
                reasons[i] = f"optimizer error: {exc}"

    # every solved row in one family call; each reduction runs along its own row
    solved = np.flatnonzero(np.isfinite(theta).all(axis=1))
    residual = function.fn(x, *theta[solved].T[..., None]) - y[solved]
    fine = np.isfinite(residual).all(axis=1).tolist()
    rmse = np.sqrt(np.mean(residual**2, axis=1)).tolist()
    fits: list = [None] * len(y)
    for j, i in enumerate(solved.tolist()):
        if fine[j]:
            fits[i] = CurveFit(
                function=function,
                theta=tuple(theta[i].tolist()),
                residual_norm=float(np.linalg.norm(residual[j])),
                rmse=rmse[j],
                n_points=len(x),
            )
        else:
            reasons[i] = "fitted curve is non-finite on the data"
    for i in usable:
        if fits[i] is None and reasons[i] is None:
            # a projection that found nothing is a row of NaN
            if function.separable is not None and np.isnan(theta[i]).all():
                reasons[i] = "no finite parameters fit the curve"
            else:
                reasons[i] = "solver returned non-finite parameters"
    return _outcome(function, reasons, strict, fits)


def _outcome(function: ParametricFunction, reasons: list, strict: bool, fits: list | None = None) -> list:
    """``fits`` (``None`` per row if not given); under ``strict`` the first row's reason raises."""
    if strict:
        for reason in reasons:
            if reason is not None:
                raise FitError(f"cannot fit {function.name}: {reason}")
    return fits if fits is not None else [None] * len(reasons)


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
        theta=tuple(theta.tolist()),
        rmse=float(np.sqrt(np.mean(residual**2))),
        n_points=int(x.shape[0]),
        gram_inv=tuple(map(tuple, gram_inv.tolist())),
    )
