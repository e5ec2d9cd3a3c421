"""NAS plug-in implementing the paper's Algorithm 1 training loop.

Rather than re-engineering the NAS, A4NN interposes this plug-in between
the NAS's per-network training loop and the prediction engine.  Any
object satisfying :class:`TrainableModel` (one ``train()`` step per
epoch, ``validate()`` returning percent fitness) can be driven — the real
NumPy CNN trainer (:mod:`repro.nn.trainer`) does, and
:class:`LearningCurveModel` replays a fixed curve for the surrogate
evaluator (:mod:`repro.nas.surrogate`) and the curve-bank calibration
(:mod:`repro.core.calibration`).

The loop also measures the engine's own overhead per interaction, which
the paper reports in §4.3.1 (mean 28.07 ms per interaction, 52.16 s per
100-model test on their hardware).  Models run in lockstep share one
stacked fit per epoch, and each is charged an equal share of its time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.engine import PredictionEngine
from repro.utils.timing import Stopwatch
from repro.utils.validation import ensure_positive

__all__ = [
    "TrainableModel",
    "LearningCurveModel",
    "TrainingResult",
    "run_training_loop",
    "run_lockstep",
]


@runtime_checkable
class TrainableModel(Protocol):
    """Minimal training interface Algorithm 1 requires of the NAS's model."""

    def train(self) -> None:
        """Run one training epoch (paper line 4: ``M.train()``)."""

    def validate(self) -> float:
        """Return validation fitness in percent (line 5: ``h_e = M.validate()``)."""


class LearningCurveModel:
    """A :class:`TrainableModel` replaying a fixed curve."""

    def __init__(self, curve: np.ndarray) -> None:
        curve = np.asarray(curve, dtype=float)
        if curve.ndim != 1 or curve.size == 0:
            raise ValueError(f"curve must be non-empty 1-D, got shape {curve.shape}")
        self.curve = curve
        self.epoch = 0

    def train(self) -> None:
        if self.epoch >= len(self.curve):
            raise RuntimeError(f"curve exhausted after {len(self.curve)} epochs")
        self.epoch += 1

    def validate(self) -> float:
        if self.epoch == 0:
            raise RuntimeError("validate() before any train() call")
        return float(self.curve[self.epoch - 1])


@dataclass(frozen=True)
class TrainingResult:
    """Complete outcome of one clean Algorithm-1 attempt for a single NN.

    Frozen, so an individual, the cache hits sharing it and a worker's
    reply hold one object.  The evaluator adds the last three fields to
    :func:`run_training_loop`'s result with :func:`dataclasses.replace`.

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
    max_epochs:
        The epoch budget the loop ran under.
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
    flops:
        Forward FLOPs per sample of the decoded network.
    epoch_seconds:
        Per-epoch wall times (measured or cost-modelled) of the epochs
        trained; the scheduler replays these.
    arena_peak_bytes:
        Peak bytes of the network's buffer arena (:mod:`repro.nn.arena`);
        0 when nothing was trained (surrogate mode).
    """

    fitness: float
    epochs_trained: int
    terminated_early: bool
    max_epochs: int = 0
    fitness_history: tuple = ()
    prediction_history: tuple = ()
    measured_fitness: float = 0.0
    engine_overhead_seconds: float = 0.0
    engine_interactions: int = 0
    engine_overhead_mean: float = 0.0
    engine_overhead_variance: float = 0.0
    flops: int = 0
    epoch_seconds: tuple = ()
    arena_peak_bytes: int = 0

    @property
    def epochs_saved(self) -> int:
        """Epochs not executed relative to ``max_epochs``."""
        return self.max_epochs - self.epochs_trained


def run_training_loop(
    model: TrainableModel,
    engine: PredictionEngine | None,
    max_epochs: int,
    *,
    epoch_callback=None,
) -> TrainingResult:
    """Execute Algorithm 1 for one NN: :func:`run_lockstep` of one.

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
    (result,) = run_lockstep([model], engine, [max_epochs], epoch_callbacks=[epoch_callback])
    return result


def run_lockstep(
    models: Sequence[TrainableModel],
    engine: PredictionEngine | None,
    budgets: Sequence[int],
    *,
    epoch_callbacks: Sequence | None = None,
) -> list[TrainingResult]:
    """Execute Algorithm 1 for several NNs side by side, one epoch at a time.

    At each epoch every model still training runs lines 4-6, then one
    ``engine.predictor`` call fits the stacked, equal-length histories
    of all of them (line 7), and each model appends its own prediction
    and asks the analyzer (lines 8-9).  A model leaves when it converges
    or spends its own budget.  A fit is a pure function of its row, so
    every model's result is the one it gets alone, except the engine
    clock: each model is charged an equal share of every stacked call it
    was part of, so the shares sum to the engine's time and
    ``engine_interactions`` stays one per epoch with the engine.

    ``budgets[i]`` is model ``i``'s ``max_epochs`` and
    ``epoch_callbacks[i]`` its ``epoch_callback``, as in
    :func:`run_training_loop`.  Returns one result per model, in order.
    """
    budgets = [int(budget) for budget in budgets]
    for budget in budgets:
        ensure_positive(budget, "max_epochs")
    callbacks = list(epoch_callbacks) if epoch_callbacks is not None else [None] * len(models)

    histories: list[list[float]] = [[] for _ in models]    # H per model
    predictions: list[list[float]] = [[] for _ in models]  # P per model
    converged = [False] * len(models)
    # the engine's clock per model; without an engine there is nothing to time
    clocks = [Stopwatch() for _ in models] if engine is not None else [None] * len(models)
    running = list(range(len(models)))

    epoch = 0
    while running:
        epoch += 1
        for i in running:
            models[i].train()                                    # line 4
            histories[i].append(float(models[i].validate()))     # lines 5-6

        if engine is None:
            for i in running:
                if callbacks[i] is not None:
                    callbacks[i](epoch, histories[i][-1], None)
        else:
            call_clock = Stopwatch()
            with call_clock:
                new = engine.predictor(epoch, [histories[i] for i in running])  # line 7
                for i, prediction in zip(running, new):
                    if prediction is not None:
                        predictions[i].append(prediction)                  # line 8
                    converged[i] = engine.converged(predictions[i])        # line 9
            share = call_clock.total / len(running)
            for i, prediction in zip(running, new):
                clocks[i].record(share)
                if callbacks[i] is not None:
                    callbacks[i](epoch, histories[i][-1], prediction)

        # lines 10-14: a converged model stops, as does one out of budget
        running = [i for i in running if not converged[i] and epoch < budgets[i]]

    # lines 17-21: converged -> return P[-1]; else return h_e
    return [
        TrainingResult(
            fitness=float(predictions[i][-1] if converged[i] else history[-1]),
            epochs_trained=len(history),
            terminated_early=converged[i],
            max_epochs=budgets[i],
            fitness_history=tuple(history),
            prediction_history=tuple(predictions[i]),
            measured_fitness=history[-1],
            **_engine_time(clocks[i]),
        )
        for i, history in enumerate(histories)
    ]


def _engine_time(clock: Stopwatch | None) -> dict:
    """A result's engine-overhead fields; their defaults when there was no engine."""
    if clock is None:
        return {}
    return {
        "engine_overhead_seconds": clock.total,
        "engine_interactions": len(clock.laps),
        "engine_overhead_mean": clock.mean_lap,
        "engine_overhead_variance": clock.lap_variance,
    }
