"""The A4NN parametric prediction engine.

This is the paper's primary contribution (§2.1): a *self-contained,
externally-controllable* engine that, given the fitness history of a
partially-trained NN, (1) fits a parametric model to the learning curve
(*parametric modeling*), (2) extrapolates the fitness expected at epoch
``e_pred``, and (3) decides via the :class:`~repro.core.analyzer.
ConvergenceAnalyzer` whether successive extrapolations have stabilized
(*prediction analyzer*).  The engine never touches model weights or the
NAS internals — it sees only scalar fitness values — which is what makes
the workflow composable.

The constructor signature mirrors the paper's
``pred_eng(e_pred, F, C_min, r)`` (Algorithm 1, line 1) plus ``N``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from repro.core.analyzer import AnalysisResult, ConvergenceAnalyzer
from repro.core.fitting import CurveFit, fit_curve
from repro.core.parametric import ParametricFunction, get_function
from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["PredictionEngine", "EngineConfig", "PredictionSession"]


@dataclass(frozen=True)
class EngineConfig:
    """User-facing engine settings (paper Table 1).

    Attributes
    ----------
    function:
        Name of the parametric family in the registry
        (paper: ``"exp3"``, i.e. ``a - b**(c - x)``).
    c_min:
        Minimum number of observed epochs before a prediction is
        attempted (paper: 3).
    e_pred:
        The future epoch whose fitness is predicted; normally the NAS's
        full training budget (paper: 25).
    n_predictions:
        ``N`` — trailing predictions that must agree to converge
        (paper: 3).
    tolerance:
        ``r`` — allowed variance among those predictions (paper: 0.5).
    stability_metric:
        How the analyzer measures instability of the prediction window.
    fitness_bounds:
        Valid fitness interval (percent accuracy: 0..100).
    """

    function: str = "exp3"
    c_min: int = 3
    e_pred: int = 25
    n_predictions: int = 3
    tolerance: float = 0.5
    stability_metric: str = "range"
    fitness_bounds: tuple[float, float] = (0.0, 100.0)

    def to_dict(self) -> dict:
        """Serializable snapshot for lineage records."""
        return {**asdict(self), "fitness_bounds": list(self.fitness_bounds)}


class PredictionEngine:
    """Fitness predictor + convergence analyzer (paper Fig. 1, §2.1).

    The engine is stateless with respect to individual NNs: the fitness
    history ``H`` and prediction history ``P`` are owned by the caller
    (the workflow orchestrator), exactly as in Algorithm 1.  Use
    :meth:`session` for a convenience wrapper that owns the histories of
    one NN.
    """

    def __init__(self, config: EngineConfig | None = None, **overrides) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        if config.c_min < 1:
            raise ValidationError(f"c_min must be >= 1, got {config.c_min}")
        ensure_positive(config.e_pred, "e_pred")
        self.config = config
        self.function: ParametricFunction = get_function(config.function)
        if config.c_min < self.function.n_params:
            # Fewer points than parameters is underdetermined; the fit
            # layer would refuse anyway, so surface it at configuration.
            raise ValidationError(
                f"c_min={config.c_min} is below the {self.function.name} "
                f"parameter count {self.function.n_params}; predictions "
                f"would be underdetermined"
            )
        self.analyzer = ConvergenceAnalyzer(
            n_predictions=config.n_predictions,
            tolerance=config.tolerance,
            fitness_bounds=config.fitness_bounds,
            stability_metric=config.stability_metric,
        )

    # -- parametric modeling -------------------------------------------------

    def fit(self, fitness_history: Sequence[float]) -> CurveFit | None:
        """Fit the parametric family to a fitness history.

        Epoch numbering is 1-based: ``fitness_history[i]`` is the
        validation fitness measured after epoch ``i + 1``.
        """
        n = len(fitness_history)
        if n < self.config.c_min:
            return None
        return fit_curve(self.function, np.arange(1.0, n + 1), np.asarray(fitness_history, float))

    def predictor(self, epoch: int, fitness_history: Sequence[float]) -> float | None:
        """Algorithm 1 line 7: ``p_e = pred_eng.predictor(e, H)``.

        Returns the candidate prediction of the fitness at ``e_pred``, or
        ``None`` when no prediction can be made yet (too few points or a
        failed fit).  ``epoch`` is accepted for interface fidelity with
        the paper's pseudocode; the history length is authoritative.
        """
        if epoch != len(fitness_history):
            raise ValueError(
                f"epoch {epoch} disagrees with history length {len(fitness_history)}"
            )
        fit = self.fit(fitness_history)
        if fit is None:
            return None
        return float(fit.predict(self.config.e_pred))

    # -- prediction analysis --------------------------------------------------

    def analyze(self, prediction_history: Sequence[float]) -> AnalysisResult:
        """Full analyzer result over the prediction history ``P``."""
        return self.analyzer.analyze(prediction_history)

    def converged(self, prediction_history: Sequence[float]) -> bool:
        """Algorithm 1 line 9: ``converged = pred_eng.analyzer(P)``."""
        return self.analyzer(prediction_history)

    # -- sessions -------------------------------------------------------------

    def session(self) -> "PredictionSession":
        """A stateful per-NN wrapper owning ``H`` and ``P``."""
        return PredictionSession(self)

    def describe(self) -> dict:
        """Engine parameter snapshot for lineage records (paper Table 1)."""
        snapshot = self.config.to_dict()
        snapshot["formula"] = self.function.formula
        return snapshot


@dataclass
class PredictionSession:
    """Histories ``H`` and ``P`` for a single NN, driven epoch by epoch.

    >>> engine = PredictionEngine()
    >>> sess = engine.session()
    >>> for acc in [50.0, 70.0, 80.0, 85.0, 87.5]:
    ...     state = sess.observe(acc)
    """

    engine: PredictionEngine
    fitness_history: list = field(default_factory=list)
    prediction_history: list = field(default_factory=list)
    converged: bool = False
    final_fitness: float | None = None

    @property
    def epoch(self) -> int:
        """Number of observed epochs so far (1-based after first observe)."""
        return len(self.fitness_history)

    def observe(self, fitness: float) -> "PredictionSession":
        """Record one epoch's measured fitness and update the prediction.

        After convergence the session is frozen; further observations are
        a programming error because Algorithm 1 terminates training.
        """
        if self.converged:
            raise RuntimeError("session already converged; training should have stopped")
        self.fitness_history.append(float(fitness))
        prediction = self.engine.predictor(self.epoch, self.fitness_history)
        if prediction is not None:
            self.prediction_history.append(prediction)
            if self.engine.converged(self.prediction_history):
                self.converged = True
                self.final_fitness = self.prediction_history[-1]
        return self
