"""NAS plug-in implementing the paper's Algorithm 1 training loop.

Rather than re-engineering the NAS, A4NN interposes this plug-in between
the NAS's per-network training loop and the prediction engine.  Any
object satisfying :class:`TrainableModel` (one ``train()`` step per
epoch, ``validate()`` returning percent fitness) can be driven — the real
NumPy CNN trainer (:mod:`repro.nn.trainer`) and the surrogate evaluator
(:mod:`repro.nas.surrogate`) both do.

The loop also measures the engine's own overhead per interaction, which
the paper reports in §4.3.1 (mean 28.07 ms per interaction, 52.16 s per
100-model test on their hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.engine import PredictionEngine
from repro.utils.timing import Stopwatch
from repro.utils.validation import ensure_positive

__all__ = ["TrainableModel", "TrainingResult", "run_training_loop"]


@runtime_checkable
class TrainableModel(Protocol):
    """Minimal training interface Algorithm 1 requires of the NAS's model."""

    def train(self) -> None:
        """Run one training epoch (paper line 4: ``M.train()``)."""

    def validate(self) -> float:
        """Return validation fitness in percent (line 5: ``h_e = M.validate()``)."""


@dataclass
class TrainingResult:
    """Full outcome of one Algorithm-1 run for a single NN.

    Attributes
    ----------
    fitness:
        The value returned to the NAS: the converged prediction
        ``P[-1]`` when the engine converged, else the last measured
        fitness ``h_e`` (Algorithm 1 lines 17-21).
    epochs_trained:
        Number of epochs actually executed (``e_t`` in the paper when
        terminated early, else the full budget).
    terminated_early:
        Whether the engine's convergence cut training short.
    fitness_history:
        ``H`` — measured validation fitness per epoch.
    prediction_history:
        ``P`` — candidate predictions in the order produced.
    measured_fitness:
        Last measured validation fitness (useful for comparing the
        prediction against ground truth).
    engine_overhead_seconds:
        Total wall time spent inside the prediction engine.
    engine_interactions:
        Number of predictor+analyzer invocations.
    engine_overhead_mean / engine_overhead_variance:
        Per-interaction overhead statistics (paper §4.3.1).
    """

    fitness: float
    epochs_trained: int
    terminated_early: bool
    fitness_history: list = field(default_factory=list)
    prediction_history: list = field(default_factory=list)
    measured_fitness: float = 0.0
    engine_overhead_seconds: float = 0.0
    engine_interactions: int = 0
    engine_overhead_mean: float = 0.0
    engine_overhead_variance: float = 0.0

    @property
    def epochs_saved(self) -> int:
        """Epochs not executed relative to ``max_epochs`` recorded at run time."""
        return self._max_epochs - self.epochs_trained

    # populated by run_training_loop; kept off the public ctor surface
    _max_epochs: int = 0

    def to_dict(self) -> dict:
        """Serializable snapshot for lineage records."""
        return {
            "fitness": self.fitness,
            "epochs_trained": self.epochs_trained,
            "terminated_early": self.terminated_early,
            "fitness_history": list(self.fitness_history),
            "prediction_history": list(self.prediction_history),
            "measured_fitness": self.measured_fitness,
            "engine_overhead_seconds": self.engine_overhead_seconds,
            "engine_interactions": self.engine_interactions,
            "engine_overhead_mean": self.engine_overhead_mean,
            "engine_overhead_variance": self.engine_overhead_variance,
            "max_epochs": self._max_epochs,
        }


def run_training_loop(
    model: TrainableModel,
    engine: PredictionEngine | None,
    max_epochs: int,
    *,
    epoch_callback=None,
) -> TrainingResult:
    """Execute Algorithm 1 for one NN.

    Parameters
    ----------
    model:
        The NAS's network under training.
    engine:
        The prediction engine; ``None`` reproduces the *standalone NAS*
        baseline (truncated training for the full ``max_epochs``).
    max_epochs:
        The NAS training budget (paper: 25).
    epoch_callback:
        Optional hook ``callback(epoch, fitness, prediction)`` invoked
        after each epoch — the evaluators use it to append the epoch to
        the individual's trace (and to checkpoint the model state).

    Returns
    -------
    TrainingResult
        With ``fitness`` set per Algorithm 1's return rule.
    """
    ensure_positive(max_epochs, "max_epochs")

    fitness_history: list[float] = []      # H
    prediction_history: list[float] = []   # P
    converged = False
    engine_clock = Stopwatch()
    last_fitness = 0.0

    for epoch in range(1, int(max_epochs) + 1):
        model.train()                       # line 4
        last_fitness = float(model.validate())  # line 5
        fitness_history.append(last_fitness)    # line 6

        prediction = None
        if engine is not None:
            with engine_clock:
                prediction = engine.predictor(epoch, fitness_history)  # line 7
                if prediction is not None:
                    prediction_history.append(prediction)              # line 8
                converged = engine.converged(prediction_history)       # line 9

        if epoch_callback is not None:
            epoch_callback(epoch, last_fitness, prediction)

        if converged:                       # lines 10-14
            break

    # lines 17-21: converged -> return P[-1]; else return h_e
    fitness = prediction_history[-1] if converged else last_fitness

    result = TrainingResult(
        fitness=float(fitness),
        epochs_trained=len(fitness_history),
        terminated_early=converged,
        fitness_history=fitness_history,
        prediction_history=prediction_history,
        measured_fitness=last_fitness,
        engine_overhead_seconds=engine_clock.total,
        engine_interactions=len(engine_clock.laps),
        engine_overhead_mean=engine_clock.mean_lap,
        engine_overhead_variance=engine_clock.lap_variance,
    )
    result._max_epochs = int(max_epochs)
    return result
