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

Every family provides a vectorized callable, an initial-guess heuristic
computed from the observed partial curve, and parameter bounds for the
least-squares fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ParametricFunction",
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
    initial_guess:
        Heuristic ``(x, y) -> theta0`` computed from the observed partial
        curve; used to start the least-squares fit.
    lower, upper:
        Per-parameter box bounds for the fit.
    """

    name: str
    formula: str
    n_params: int
    fn: Callable[..., np.ndarray]
    initial_guess: Callable[[np.ndarray, np.ndarray], tuple]
    lower: tuple
    upper: tuple

    def __call__(self, x, *theta) -> np.ndarray:
        """Evaluate the family at ``x`` with parameters ``theta``."""
        if len(theta) != self.n_params:
            raise TypeError(
                f"{self.name} expects {self.n_params} parameters, got {len(theta)}"
            )
        return self.fn(np.asarray(x, dtype=float), *theta)

    def guess(self, x: Sequence[float], y: Sequence[float]) -> tuple:
        """Initial parameter estimate from the observed partial curve.

        The guess is clipped into the fit bounds so optimizers always
        start feasible.
        """
        theta0 = np.asarray(
            self.initial_guess(np.asarray(x, float), np.asarray(y, float)), float
        )
        lo = np.asarray(self.lower, float)
        hi = np.asarray(self.upper, float)
        return tuple(np.clip(theta0, lo + 1e-9, hi - 1e-9))


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


def _exp3_fn(x, a, b, c):
    # Clamp the exponent so b**(c-x) cannot overflow during optimizer
    # exploration; 700 ~= log(float64 max) for the exp-based rewrite.
    logb = np.log(np.maximum(b, 1.0 + _EPS))
    expo = np.clip((c - x) * logb, -700.0, 700.0)
    return a - np.exp(expo)


def _exp3_guess(x, y):
    a = _asymptote_guess(y)
    return (a, 1.5, float(x[0]))


exp3 = register_function(
    ParametricFunction(
        name="exp3",
        formula="a - b**(c - x)",
        n_params=3,
        fn=_exp3_fn,
        initial_guess=_exp3_guess,
        lower=(0.0, 1.0 + 1e-6, -100.0),
        upper=(_MAX_ASYMPTOTE, 100.0, 100.0),
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
        initial_guess=lambda x, y: (_asymptote_guess(y), max(float(y[-1] - y[0]), 1.0), 0.5),
        lower=(0.0, _EPS, _EPS),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE, 10.0),
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
        initial_guess=lambda x, y: (float(y[0]), max(float(y[-1] - y[0]), 0.1)),
        lower=(-_MAX_ASYMPTOTE, 0.0),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE),
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
        initial_guess=lambda x, y: (_asymptote_guess(y), max(float(y[-1] - y[0]), 0.1)),
        lower=(0.0, 0.0),
        upper=(_MAX_ASYMPTOTE, _MAX_ASYMPTOTE),
    )
)
