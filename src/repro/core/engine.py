"""The A4NN parametric prediction engine.

This is the paper's primary contribution (§2.1): a *self-contained,
externally-controllable* engine that, given the fitness history of a
partially-trained NN, (1) fits a parametric model to the learning curve
(*parametric modeling*), (2) extrapolates the fitness expected at epoch
``e_pred``, and (3) decides whether successive extrapolations have
stabilized (*prediction analyzer*, :meth:`PredictionEngine.converged`).
The engine never touches model weights or the NAS internals — it sees
only scalar fitness values — which is what makes the workflow
composable.

The constructor takes the paper's ``pred_eng(e_pred, F, C_min, r)``
(Algorithm 1, line 1) plus ``N`` as one :class:`EngineConfig`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.core.fitting import CurveFit, fit_curve
from repro.core.parametric import ParametricFunction, get_function
from repro.utils.validation import ValidationError, ensure_positive

__all__ = ["PredictionEngine", "EngineConfig", "STABILITY_METRICS"]

STABILITY_METRICS = ("range", "variance", "std")


@dataclass(frozen=True)
class EngineConfig:
    """User-facing engine settings (paper Table 1), checked on construction.

    Attributes
    ----------
    function:
        Name of the parametric family in the registry
        (paper: ``"exp3"``, i.e. ``a - b**(c - x)``).
    c_min:
        Minimum number of observed epochs before a prediction is
        attempted (paper: 3); at least the family's parameter count.
    e_pred:
        The future epoch whose fitness is predicted; normally the NAS's
        full training budget (paper: 25).
    n_predictions:
        ``N`` — trailing predictions that must agree to converge
        (paper: 3).
    tolerance:
        ``r`` — allowed variance among those predictions (paper: 0.5).
    stability_metric:
        How the analyzer measures instability of the prediction window:
        ``"range"`` (max - min), ``"variance"`` or ``"std"``.  The paper
        calls ``r`` "the allowed variance in predictions"; implementations
        of the idea measure any of the three.  ``"range"`` is the default
        because with ``N = 3, r = 0.5`` it is the paper's described
        behaviour: three successive predictions within half a percentage
        point.
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

    def __post_init__(self) -> None:
        if self.c_min < 1:
            raise ValidationError(f"c_min must be >= 1, got {self.c_min}")
        ensure_positive(self.e_pred, "e_pred")
        try:
            family = get_function(self.function)
        except KeyError as exc:
            raise ValidationError(exc.args[0]) from None
        if self.c_min < family.n_params:
            # Fewer points than parameters is underdetermined; the fit
            # layer would refuse anyway, so surface it at configuration.
            raise ValidationError(
                f"c_min={self.c_min} is below the {family.name} "
                f"parameter count {family.n_params}; predictions "
                f"would be underdetermined"
            )
        if self.n_predictions < 2:
            raise ValidationError(
                f"n_predictions must be >= 2 to measure stability, got {self.n_predictions}"
            )
        if self.stability_metric not in STABILITY_METRICS:
            raise ValidationError(
                f"stability_metric must be one of {STABILITY_METRICS}, "
                f"got {self.stability_metric!r}"
            )
        lo, hi = self.fitness_bounds
        if not lo < hi:
            raise ValidationError(
                f"fitness_bounds must satisfy low < high, got {self.fitness_bounds}"
            )
        ensure_positive(self.tolerance, "tolerance")

    def to_dict(self) -> dict:
        """Serializable snapshot for lineage records."""
        return {**asdict(self), "fitness_bounds": list(self.fitness_bounds)}


class PredictionEngine:
    """Fitness predictor + convergence analyzer (paper Fig. 1, §2.1).

    The engine is stateless with respect to individual NNs: the fitness
    history ``H`` and prediction history ``P`` are owned by the caller,
    exactly as in Algorithm 1 (:func:`~repro.core.plugin.run_training_loop`).
    """

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = EngineConfig() if config is None else config
        self.function: ParametricFunction = get_function(self.config.function)

    # -- parametric modeling -------------------------------------------------

    def fit(self, fitness_histories) -> list[CurveFit | None]:
        """Fit the parametric family to each row of a stack of fitness histories.

        Epoch numbering is 1-based: ``fitness_histories[i][j]`` is model
        ``i``'s validation fitness measured after epoch ``j + 1``.  All
        rows have one length.
        """
        histories = np.asarray(fitness_histories, float)
        n = histories.shape[1]
        if n < self.config.c_min:
            return [None] * len(histories)
        return fit_curve(self.function, np.arange(1.0, n + 1), histories)

    def predictor(self, epoch: int, fitness_history) -> list | float | None:
        """Algorithm 1 line 7: ``p_e = pred_eng.predictor(e, H)``.

        ``fitness_history`` is a ``(M, epoch)`` stack, one history per
        model, fitted in one call; the result is one candidate
        prediction of the fitness at ``e_pred`` per model, or ``None``
        for a model no prediction can be made for yet (too few points or
        a failed fit).  Every fitted row is evaluated at ``e_pred`` in
        one call of the family, elementwise, so a row's prediction is
        the one it gets alone.  A 1-D history is the stack of one and
        gets its one prediction back.  ``epoch`` is accepted for
        interface fidelity with the paper's pseudocode; the history
        length is authoritative.
        """
        histories = np.asarray(fitness_history, float)
        if histories.ndim == 1:
            return self.predictor(epoch, histories[None])[0]
        if epoch != histories.shape[1]:
            raise ValueError(
                f"epoch {epoch} disagrees with history length {histories.shape[1]}"
            )
        fits = self.fit(histories)
        fitted = [fit.theta for fit in fits if fit is not None]
        if not fitted:
            return fits
        # every fitted row at e_pred in one family call
        predictions = iter(self.function(self.config.e_pred, *np.array(fitted).T).tolist())
        return [None if fit is None else next(predictions) for fit in fits]

    # -- prediction analysis --------------------------------------------------

    def converged(self, prediction_history: Sequence[float]) -> bool:
        """Algorithm 1 line 9: ``converged = pred_eng.analyzer(P)``.

        Paper §2.1.2: the last ``N`` predictions must all be valid
        fitness values (finite and inside ``fitness_bounds``), and their
        spread under ``stability_metric`` must be at most ``r``.  Only
        the trailing ``N`` entries of ``P`` are inspected.
        """
        config = self.config
        window = prediction_history[-config.n_predictions :]
        if len(window) < config.n_predictions:
            return False
        lo, hi = config.fitness_bounds
        if not all(math.isfinite(p) and lo <= p <= hi for p in window):
            return False
        if config.stability_metric == "range":
            spread = max(window) - min(window)
        elif config.stability_metric == "variance":
            spread = float(np.var(np.asarray(window, dtype=float)))
        else:
            spread = float(np.std(np.asarray(window, dtype=float)))
        return spread <= config.tolerance

    def describe(self) -> dict:
        """Engine parameter snapshot for lineage records (paper Table 1)."""
        snapshot = self.config.to_dict()
        snapshot["formula"] = self.function.formula
        return snapshot
