"""Parametric learning-curve function library.

The A4NN prediction engine models an NN's fitness learning curve with a
parametric function and extrapolates the fitness expected at a future
epoch.  The paper uses the concave exponential

.. math::  \\mathcal{F}(x) = a - b^{\\,c-x}

(validation accuracy rises quickly, then saturates toward the asymptote
``a``).  The engine is deliberately *parametric-function agnostic* — the
function is a constructor argument — and the paper's conclusions ask
"which parametric functions are best able to predict neural architecture
fitness?".  We therefore ship a library of well-known learning-curve
families (cf. Domhan et al., IJCAI'15; Viering & Loog, 2021) behind a
single :class:`ParametricFunction` interface so they can be swapped and
ablated (see ``benchmarks/test_ablation_functions.py``).

Every family provides a vectorized callable and box bounds for the
least-squares fit, and says how it is to be fitted by what else it
declares.  A family that is linear in all but at most one parameter
declares that structure (:class:`Separable`) and is solved by variable
projection, in closed form apart from a one-dimensional search; the
paper's ``exp3`` is one: ``a - b**(c - x) = a - K * exp(-beta * x)`` with
``beta = ln b`` and ``K = b**c``.  A family with two or more nonlinear
parameters declares an initial-guess heuristic instead, the start of an
iterative trust-region fit.  :mod:`repro.core.fitting` reads nothing
but that declaration to pick the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ParametricFunction",
    "Separable",
    "FUNCTION_REGISTRY",
    "get_function",
    "register_function",
    "exp3",
    "pow3",
    "log2",
    "vapor_pressure",
    "mmf",
    "janoschek",
    "weibull",
    "ilog2",
]

# Keep fitted exponent/base parameters in a numerically safe region: the
# curve data are percentages in [0, 100] over tens of epochs, so anything
# outside these bounds is an escaped fit, not a better model.
_MAX_ASYMPTOTE = 1000.0
_EPS = 1e-12


# Candidate values of the nonlinear parameter per search stage, as
# fractions of a (log-scale) window.  Each stage narrows a window to the
# two cells around a dip of the SSE, a factor of 16; 16**-14 of the
# widest declared window is below one float64 ulp.
_STAGE_GRID = np.linspace(0.0, 1.0, 33)
_MAX_STAGES = 14
# The reduced SSE of a noisy curve can have several dips within 1e-4 of
# each other, so the deepest few are zoomed side by side, in the same
# array operations, and compared once resolved.
_WINDOWS = 3
# A window whose candidates agree to this relative SSE spread is
# resolved: the best of its 33 is within ~1e-11 of the minimum and moves
# a prediction by < 1e-4, far inside the analyzer's tolerance.
_RESOLVED = 1e-8


def _bounded_lines(phi, y, a_lo, a_hi, k_lo, k_hi):
    """Least squares ``y ~ a + k * phi[g]`` inside the box, for every row ``g`` at once.

    For a given ``k`` the best ``a`` is ``mean(y) - k * mean(phi)``
    clipped to its bounds, which leaves a convex, piecewise-quadratic
    function of ``k`` alone::

        var * (k - k_free)**2 + n * dist(mean(y) - k * mean(phi), [a_lo, a_hi])**2

    (``var`` the centred sum of squares of ``phi``, ``k_free`` the
    unbounded slope).  Its minimiser is ``k_free`` when the ``a`` that
    goes with it is feasible, and otherwise the minimiser of the
    quadratic piece that holds ``a`` on the bound it violates; clipping
    the minimiser of a convex function of one variable to ``[k_lo,
    k_hi]`` is exact.  So the bounded optimum takes three clips and no
    candidate enumeration.  Returns ``(a, k, sse)``, each of shape
    ``(G,)``; the SSE is summed from the residuals (its closed form
    cancels catastrophically on a near-exact fit) and is ``inf`` for a
    row that produced nothing finite.  The caller silences
    floating-point warnings: a degenerate row divides by zero and is
    discarded here.
    """
    n = y.size
    y_mean = y.sum() / n
    p_mean = phi.sum(axis=1) / n
    centred = phi - p_mean[:, None]
    var = np.einsum("gn,gn->g", centred, centred)
    # a basis that is constant over the data leaves k unidentified, one
    # that vanishes on it leaves k without effect: take 0
    k = np.where(var > 0.0, (centred @ (y - y_mean)) / var, 0.0)
    a = np.minimum(np.maximum(y_mean - k * p_mean, a_lo), a_hi)
    pull = var + n * p_mean**2
    k = np.where(pull > 0.0, (var * k + n * p_mean * (y_mean - a)) / pull, 0.0)
    k = np.minimum(np.maximum(k, k_lo), k_hi)
    a = np.minimum(np.maximum(y_mean - k * p_mean, a_lo), a_hi)
    residual = y - a[:, None] - k[:, None] * phi
    sse = np.einsum("gn,gn->g", residual, residual)
    sse[~np.isfinite(sse)] = np.inf
    return a, k, sse


@dataclass(frozen=True)
class Separable:
    """Linear structure of a family: ``y = a + k * basis(x, nu)``.

    Once the one nonlinear parameter ``nu`` is fixed the family is a
    straight line in ``basis``, so the best bounded ``(a, k)`` is closed
    form and the fit is a search over ``nu`` alone (variable
    projection).  ``a`` is the family's first public parameter and keeps
    its declared bounds; everything else is mapped here.

    Attributes
    ----------
    basis:
        ``basis(x, nu)`` for ``x`` of shape ``(n,)`` and candidates
        ``nu`` of shape ``(G, 1)``, returning ``(G, n)``; ``nu`` is
        ``None`` for a family with no nonlinear parameter, which returns
        ``(n,)``.
    k_bounds:
        ``k_bounds(nu) -> (low, high)``: the signed bounds of ``k``
        implied by the family's public box, per candidate (shape
        ``(G,)``) or scalar.
    theta:
        ``theta(a, k, nu)``: the solution in the family's public
        parametrisation.
    nu_bounds:
        Positive search interval of ``nu`` (searched on a log scale), or
        ``None`` for a fully linear family.
    """

    basis: Callable[..., np.ndarray]
    k_bounds: Callable[..., tuple]
    theta: Callable[..., tuple]
    nu_bounds: tuple | None = None

    def solve(self, x: np.ndarray, y: np.ndarray, a_lo: float, a_hi: float) -> tuple | None:
        """The bounded least-squares parameters, or ``None`` if nothing finite fits.

        Stateless and without a starting point: a coarse grid over the
        whole of ``nu_bounds`` on a log scale, then repeated zooms into
        the two cells around each of the deepest dips of the SSE, every
        candidate of a stage evaluated in one ``(G, n)`` array operation,
        until the candidates around the best one are indistinguishable
        or its window is one ulp wide.  The result is a pure function of
        ``(x, y)``.
        """
        with np.errstate(all="ignore"):
            if self.nu_bounds is None:
                phi = self.basis(x, None)[None, :]
                a, k, sse = _bounded_lines(phi, y, a_lo, a_hi, *self.k_bounds(None))
                return self.theta(a[0], k[0], None) if np.isfinite(sse[0]) else None
            lo, hi = (np.array([bound]) for bound in np.log(self.nu_bounds))
            n_cells = len(_STAGE_GRID)
            for _ in range(_MAX_STAGES):
                u = lo[:, None] + (hi - lo)[:, None] * _STAGE_GRID
                nu = np.exp(u).reshape(-1, 1)
                a, k, sse = _bounded_lines(
                    self.basis(x, nu), y, a_lo, a_hi, *self.k_bounds(nu[:, 0])
                )
                # a dip: no worse than both neighbours inside its window
                walled = np.full((len(u), n_cells + 2), np.inf)
                walled[:, 1:-1] = sse.reshape(u.shape)
                inner = walled[:, 1:-1]
                dips = np.flatnonzero((inner <= walled[:, :-2]) & (inner <= walled[:, 2:]))
                dips = dips[np.argsort(sse[dips], kind="stable")[:_WINDOWS]]
                best = dips[0]
                if not np.isfinite(sse[best]):
                    return None
                window, cell = np.divmod(dips, n_cells)
                if not inner[window[0]].max() - sse[best] > _RESOLVED * sse[best]:
                    break
                lo = u[window, np.maximum(cell - 1, 0)]
                hi = u[window, np.minimum(cell + 1, n_cells - 1)]
            return self.theta(a[best], k[best], nu[best, 0])


@dataclass(frozen=True)
class ParametricFunction:
    """A parametric learning-curve family ``y = f(x; theta)``.

    Attributes
    ----------
    name:
        Registry key (e.g. ``"exp3"`` for the paper's
        ``a - b**(c - x)``).
    formula:
        Human-readable formula for record trails and reports.
    n_params:
        Length of the parameter vector ``theta``.
    fn:
        Vectorized callable ``fn(x, *theta) -> y``; must accept numpy
        arrays for ``x`` and return finite values inside the bounds.
    lower, upper:
        Per-parameter box bounds for the fit.
    separable:
        The family's linear structure, when it is linear in all but at
        most one parameter; such a family is fitted by projection and
        needs no starting point.
    initial_guess:
        For the other families: heuristic ``(x, y) -> theta0`` computed
        from the observed partial curve, the start of the iterative
        least-squares fit.
    """

    name: str
    formula: str
    n_params: int
    fn: Callable[..., np.ndarray]
    lower: tuple
    upper: tuple
    separable: Separable | None = None
    initial_guess: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    def __call__(self, x, *theta) -> np.ndarray:
        """Evaluate the family at ``x`` with parameters ``theta``."""
        if len(theta) != self.n_params:
            raise TypeError(
                f"{self.name} expects {self.n_params} parameters, got {len(theta)}"
            )
        return self.fn(np.asarray(x, dtype=float), *theta)

    def guess(self, x: Sequence[float], y: Sequence[float]) -> tuple | None:
        """Parameter estimate from the observed partial curve, inside the bounds.

        For a :class:`Separable` family this is the projected
        least-squares solution itself (``None`` when nothing finite
        fits); for the others the family's heuristic, clipped strictly
        inside the bounds so that an iterative fit starts feasible.
        """
        x, y = np.asarray(x, float), np.asarray(y, float)
        lo = np.asarray(self.lower, float)
        hi = np.asarray(self.upper, float)
        if self.separable is not None:
            theta = self.separable.solve(x, y, lo[0], hi[0])
            return None if theta is None else tuple(np.clip(theta, lo, hi))
        return tuple(np.clip(np.asarray(self.initial_guess(x, y), float), lo + 1e-9, hi - 1e-9))


FUNCTION_REGISTRY: dict[str, ParametricFunction] = {}


def register_function(func: ParametricFunction) -> ParametricFunction:
    """Add a family to the global registry (overwrites same-name entries)."""
    FUNCTION_REGISTRY[func.name] = func  # a4nn: noqa(CONC001) -- import-time registry: a family registered at run time in the parent does not reach spawned workers, which re-import this module
    return func


def get_function(name: str) -> ParametricFunction:
    """Look up a registered family by name.

    Raises ``KeyError`` with the available names when unknown.
    """
    try:
        return FUNCTION_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(FUNCTION_REGISTRY))
        raise KeyError(f"unknown parametric function {name!r}; known: {known}") from None


def _asymptote_guess(y: np.ndarray) -> float:
    """Crude asymptote estimate: last value plus a fraction of recent gain."""
    if len(y) >= 2:
        recent_gain = max(float(y[-1] - y[max(0, len(y) - 3)]), 0.0)
    else:
        recent_gain = 0.0
    return float(y[-1]) + recent_gain + 1.0


# --- The paper's function: F(x) = a - b^(c - x) ---------------------------
#
# For b > 1 the term b^(c-x) decays geometrically in x, so F rises from
# below toward the asymptote ``a``.  ``c`` shifts where the knee sits.
# ``b`` and ``c`` act only through K = b^c once beta = ln b is fixed:
# F(x) = a - K * exp(-beta * x), a line in exp(-beta * x) with slope -K,
# and c in [-100, 100] is K in [b^-100, b^100].


def _exp3_fn(x, a, b, c):
    # Clamp the exponent so b**(c-x) cannot overflow during optimizer
    # exploration; 700 ~= log(float64 max) for the exp-based rewrite.
    logb = np.log(np.maximum(b, 1.0 + _EPS))
    expo = np.clip((c - x) * logb, -700.0, 700.0)
    return a - np.exp(expo)


exp3 = register_function(
    ParametricFunction(
        name="exp3",
        formula="a - b**(c - x)",
        n_params=3,
        fn=_exp3_fn,
        lower=(0.0, 1.0 + 1e-6, -100.0),
        upper=(_MAX_ASYMPTOTE, 100.0, 100.0),
        separable=Separable(
            basis=lambda x, beta: np.exp(-beta * x),
            k_bounds=lambda beta: (-np.exp(100.0 * beta), -np.exp(-100.0 * beta)),
            theta=lambda a, k, beta: (a, np.exp(beta), np.log(-k) / beta),
            nu_bounds=(np.log(1.0 + 1e-6), np.log(100.0)),
        ),
    )
)


# --- Power law: a - b * x^(-c) ---------------------------------------------


def _pow3_fn(x, a, b, c):
    return a - b * np.power(np.maximum(x, _EPS), -np.clip(c, _EPS, 10.0))


pow3 = register_function(
    ParametricFunction(
        name="pow3",
        formula="a - b * x**(-c)",
        n_params=3,
        fn=_pow3_fn,
        lower=(0.0, _EPS, _EPS),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE, 10.0),
        separable=Separable(
            basis=lambda x, c: np.maximum(x, _EPS) ** -c,
            k_bounds=lambda c: (-_MAX_ASYMPTOTE, -_EPS),
            theta=lambda a, k, c: (a, -k, c),
            nu_bounds=(_EPS, 10.0),
        ),
    )
)


# --- Logarithmic: a + b * log(x) -------------------------------------------


def _log2_fn(x, a, b):
    return a + b * np.log(np.maximum(x, _EPS))


log2 = register_function(
    ParametricFunction(
        name="log2",
        formula="a + b * log(x)",
        n_params=2,
        fn=_log2_fn,
        lower=(-_MAX_ASYMPTOTE, 0.0),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE),
        separable=Separable(
            basis=lambda x, _: np.log(np.maximum(x, _EPS)),
            k_bounds=lambda _: (0.0, _MAX_ASYMPTOTE),
            theta=lambda a, k, _: (a, k),
        ),
    )
)


# --- Vapor pressure: exp(a + b/x + c*log(x)) -------------------------------


def _vap_fn(x, a, b, c):
    x = np.maximum(x, _EPS)
    return np.exp(np.clip(a + b / x + c * np.log(x), -700.0, 700.0))


vapor_pressure = register_function(
    ParametricFunction(
        name="vapor_pressure",
        formula="exp(a + b/x + c*log(x))",
        n_params=3,
        fn=_vap_fn,
        initial_guess=lambda x, y: (np.log(max(float(y[-1]), 1.0)), -1.0, 0.01),
        lower=(-20.0, -100.0, -5.0),
        upper=(20.0, 100.0, 5.0),
    )
)


# --- Morgan-Mercer-Flodin: (a*b + c*x^d) / (b + x^d) ------------------------


def _mmf_fn(x, a, b, c, d):
    xd = np.power(np.maximum(x, _EPS), np.clip(d, _EPS, 10.0))
    return (a * b + c * xd) / (b + xd)


mmf = register_function(
    ParametricFunction(
        name="mmf",
        formula="(a*b + c*x**d) / (b + x**d)",
        n_params=4,
        fn=_mmf_fn,
        initial_guess=lambda x, y: (float(y[0]), 1.0, _asymptote_guess(y), 1.0),
        lower=(0.0, _EPS, 0.0, _EPS),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE, _MAX_ASYMPTOTE, 10.0),
    )
)


# --- Janoschek: a - (a - b) * exp(-c * x^d) ---------------------------------


def _janoschek_fn(x, a, b, c, d):
    xd = np.power(np.maximum(x, 0.0), np.clip(d, _EPS, 10.0))
    return a - (a - b) * np.exp(-np.clip(c, 0.0, 100.0) * xd)


janoschek = register_function(
    ParametricFunction(
        name="janoschek",
        formula="a - (a - b) * exp(-c * x**d)",
        n_params=4,
        fn=_janoschek_fn,
        initial_guess=lambda x, y: (_asymptote_guess(y), float(y[0]), 0.3, 1.0),
        lower=(0.0, 0.0, 0.0, _EPS),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE, 100.0, 10.0),
    )
)


# --- Weibull: a - (a - b) * exp(-(c*x)^d) -----------------------------------


def _weibull_fn(x, a, b, c, d):
    cx = np.maximum(c, _EPS) * np.maximum(x, 0.0)
    return a - (a - b) * np.exp(-np.power(cx, np.clip(d, _EPS, 10.0)))


weibull = register_function(
    ParametricFunction(
        name="weibull",
        formula="a - (a - b) * exp(-(c*x)**d)",
        n_params=4,
        fn=_weibull_fn,
        initial_guess=lambda x, y: (_asymptote_guess(y), float(y[0]), 0.2, 1.0),
        lower=(0.0, 0.0, _EPS, _EPS),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE, 100.0, 10.0),
    )
)


# --- ilog2: a - b / log(x + 1) ----------------------------------------------


def _ilog2_fn(x, a, b):
    return a - b / np.log(np.maximum(x, 0.0) + np.e)


ilog2 = register_function(
    ParametricFunction(
        name="ilog2",
        formula="a - b / log(x + e)",
        n_params=2,
        fn=_ilog2_fn,
        lower=(0.0, 0.0),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE),
        separable=Separable(
            basis=lambda x, _: 1.0 / np.log(np.maximum(x, 0.0) + np.e),
            k_bounds=lambda _: (-_MAX_ASYMPTOTE, 0.0),
            theta=lambda a, k, _: (a, -k),
        ),
    )
)
