"""Prediction analyzer: decides when fitness predictions have converged.

Paper §2.1.2: the analyzer first checks that the most recent predicted
fitnesses are *valid* fitness values (validation accuracy, so within
``[0, 100]``); any out-of-bounds prediction among the most recent ``N``
means "not converged".  It then checks that the most recent ``N``
predictions are mutually stable within the allowed variance ``r``.  Once
both hold, the latest prediction becomes the NN's final fitness and
training terminates.

The paper calls ``r`` "the allowed variance in predictions".  Different
implementations of this idea measure stability as the range
(``max - min``), the sample variance, or the standard deviation of the
window; we support all three via ``stability_metric`` and default to
``"range"``, which with ``N = 3, r = 0.5`` matches the paper's described
behaviour (three successive predictions within half a percentage point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["ConvergenceAnalyzer", "AnalysisResult", "STABILITY_METRICS"]

STABILITY_METRICS = ("range", "variance", "std")


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one analyzer invocation.

    Attributes
    ----------
    converged:
        True when the prediction history satisfies the convergence rule.
    reason:
        Human-readable explanation, recorded in lineage trails.
    spread:
        Value of the stability metric over the window (NaN when the
        window is incomplete or invalid).
    window:
        The last-``N`` predictions that were inspected.
    """

    converged: bool
    reason: str
    spread: float
    window: tuple


class ConvergenceAnalyzer:
    """Stability test over the most recent ``N`` fitness predictions.

    Parameters
    ----------
    n_predictions:
        ``N`` — how many trailing predictions must agree (paper: 3).
    tolerance:
        ``r`` — allowed instability of the window (paper: 0.5).
    fitness_bounds:
        Valid fitness interval; validation accuracy in percent is
        ``(0, 100)``.
    stability_metric:
        ``"range"`` (max - min), ``"variance"``, or ``"std"``.
    """

    def __init__(
        self,
        n_predictions: int = 3,
        tolerance: float = 0.5,
        *,
        fitness_bounds: tuple[float, float] = (0.0, 100.0),
        stability_metric: str = "range",
    ) -> None:
        if int(n_predictions) < 2:
            raise ValidationError(
                f"n_predictions must be >= 2 to measure stability, got {n_predictions}"
            )
        if stability_metric not in STABILITY_METRICS:
            raise ValidationError(
                f"stability_metric must be one of {STABILITY_METRICS}, got {stability_metric!r}"
            )
        lo, hi = fitness_bounds
        if not lo < hi:
            raise ValidationError(f"fitness_bounds must satisfy low < high, got {fitness_bounds}")
        self.n_predictions = int(n_predictions)
        self.tolerance = ensure_positive(float(tolerance), "tolerance")
        self.fitness_bounds = (float(lo), float(hi))
        self.stability_metric = stability_metric

    def _spread(self, window: np.ndarray) -> float:
        if self.stability_metric == "range":
            return float(window.max() - window.min())
        if self.stability_metric == "variance":
            return float(np.var(window))
        return float(np.std(window))

    def analyze(self, predictions: Sequence[float]) -> AnalysisResult:
        """Apply the convergence rule to a full prediction history.

        ``predictions`` is the chronological prediction history ``P``;
        only the trailing ``N`` entries are inspected, per the paper.
        """
        window = np.asarray(predictions[-self.n_predictions :], dtype=float)
        if len(window) < self.n_predictions:
            return AnalysisResult(
                converged=False,
                reason=f"need {self.n_predictions} predictions, have {len(window)}",
                spread=float("nan"),
                window=tuple(window.tolist()),
            )

        lo, hi = self.fitness_bounds
        invalid = ~np.isfinite(window) | (window < lo) | (window > hi)
        if np.any(invalid):
            bad = window[invalid]
            return AnalysisResult(
                converged=False,
                reason=f"window contains invalid fitness values {bad.tolist()} "
                f"outside [{lo}, {hi}]",
                spread=float("nan"),
                window=tuple(window.tolist()),
            )

        spread = self._spread(window)
        if spread <= self.tolerance:
            return AnalysisResult(
                converged=True,
                reason=f"{self.stability_metric} {spread:.4f} <= tolerance {self.tolerance}",
                spread=spread,
                window=tuple(window.tolist()),
            )
        return AnalysisResult(
            converged=False,
            reason=f"{self.stability_metric} {spread:.4f} > tolerance {self.tolerance}",
            spread=spread,
            window=tuple(window.tolist()),
        )

    def __call__(self, predictions: Sequence[float]) -> bool:
        """Boolean form used by Algorithm 1's ``pred_eng.analyzer(P)``."""
        return self.analyze(predictions).converged

    def describe(self) -> dict:
        """Configuration snapshot for lineage records."""
        return {
            "n_predictions": self.n_predictions,
            "tolerance": self.tolerance,
            "fitness_bounds": list(self.fitness_bounds),
            "stability_metric": self.stability_metric,
        }
