"""Ensemble prediction engine (extension).

The paper's conclusions ask *"Which parametric functions are best able
to predict neural architecture fitness?"*.  This extension sidesteps
choosing one: it fits several families to the same fitness history and
aggregates their extrapolations (median by default, robust to a single
family's escape).  The ensemble exposes the exact
predictor/analyzer/session interface of
:class:`~repro.core.engine.PredictionEngine`, so it drops into
Algorithm 1, the evaluators, and the orchestrator unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.analyzer import AnalysisResult, ConvergenceAnalyzer
from repro.core.engine import PredictionSession
from repro.core.fitting import fit_curve
from repro.core.parametric import get_function
from repro.utils.validation import ValidationError

__all__ = ["EnsembleConfig", "EnsemblePredictionEngine"]

_AGGREGATORS = {
    "median": np.median,
    "mean": np.mean,
    "min": np.min,
    "max": np.max,
}


@dataclass(frozen=True)
class EnsembleConfig:
    """Settings for the multi-function engine.

    Attributes
    ----------
    functions:
        Registry names of the families to fit each epoch.
    aggregator:
        How member extrapolations combine: ``median`` (default),
        ``mean``, ``min`` (pessimistic), or ``max`` (optimistic).
    e_pred, n_predictions, tolerance, stability_metric, fitness_bounds:
        As in :class:`~repro.core.engine.EngineConfig`; ``c_min`` is
        derived as the largest member's parameter count (an ensemble
        prediction needs every member to be determined).
    """

    functions: tuple = ("exp3", "pow3", "ilog2", "janoschek")
    aggregator: str = "median"
    e_pred: int = 25
    n_predictions: int = 3
    tolerance: float = 0.5
    stability_metric: str = "range"
    fitness_bounds: tuple = (0.0, 100.0)

    def to_dict(self) -> dict:
        return {
            "functions": list(self.functions),
            "aggregator": self.aggregator,
            "e_pred": self.e_pred,
            "n_predictions": self.n_predictions,
            "tolerance": self.tolerance,
            "stability_metric": self.stability_metric,
            "fitness_bounds": list(self.fitness_bounds),
        }


class EnsemblePredictionEngine:
    """Median-of-families fitness predictor, Algorithm-1 compatible."""

    def __init__(self, config: EnsembleConfig | None = None, **overrides) -> None:
        if config is None:
            config = EnsembleConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        if not config.functions:
            raise ValidationError("ensemble needs at least one parametric function")
        if config.aggregator not in _AGGREGATORS:
            raise ValidationError(
                f"aggregator must be one of {sorted(_AGGREGATORS)}, got {config.aggregator!r}"
            )
        self.config = config
        self.members = [get_function(name) for name in config.functions]
        self.c_min = max(member.n_params for member in self.members)
        self._aggregate = _AGGREGATORS[config.aggregator]
        self.analyzer = ConvergenceAnalyzer(
            n_predictions=config.n_predictions,
            tolerance=config.tolerance,
            fitness_bounds=config.fitness_bounds,
            stability_metric=config.stability_metric,
        )

    # -- PredictionEngine interface --------------------------------------------

    def member_predictions(self, fitness_history: Sequence[float]) -> dict[str, float]:
        """Per-family extrapolations at ``e_pred`` (only successful fits)."""
        n = len(fitness_history)
        if n < self.c_min:
            return {}
        epochs = np.arange(1, n + 1, dtype=float)
        fitness = np.asarray(fitness_history, dtype=float)
        predictions: dict[str, float] = {}
        for member in self.members:
            fit = fit_curve(member, epochs, fitness)
            if fit is None:
                continue
            value = float(fit.predict(self.config.e_pred))
            if np.isfinite(value):
                predictions[member.name] = value
        return predictions

    def predictor(self, epoch: int, fitness_history: Sequence[float]) -> float | None:
        """Aggregated candidate prediction, or ``None`` when unavailable."""
        if epoch != len(fitness_history):
            raise ValueError(
                f"epoch {epoch} disagrees with history length {len(fitness_history)}"
            )
        members = self.member_predictions(fitness_history)
        if not members:
            return None
        return float(self._aggregate(list(members.values())))

    def analyze(self, prediction_history: Sequence[float]) -> AnalysisResult:
        return self.analyzer.analyze(prediction_history)

    def converged(self, prediction_history: Sequence[float]) -> bool:
        return self.analyzer(prediction_history)

    def session(self) -> PredictionSession:
        """A per-NN session; the ensemble quacks like the single engine."""
        return PredictionSession(self)

    def describe(self) -> dict:
        snapshot = self.config.to_dict()
        snapshot["c_min"] = self.c_min
        snapshot["formulas"] = {m.name: m.formula for m in self.members}
        return snapshot
