"""Figure 2: the engine's fitness prediction converging on one NN.

Reproduces the paper's worked example — a single learning curve where
candidate predictions of the epoch-25 fitness are produced every epoch
from epoch ``C_min`` on, and the analyzer declares convergence around
epoch 12, terminating training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import PredictionEngine
from repro.core.plugin import LearningCurveModel, run_training_loop
from repro.experiments.configs import PAPER_ENGINE_CONFIG
from repro.experiments.reporting import ReportTable

__all__ = ["Fig2Result", "run_fig2", "format_fig2"]


@dataclass
class Fig2Result:
    """The example curve and the engine's per-epoch behaviour on it."""

    fitness_curve: list
    predictions: list  # (epoch, predicted fitness at e_pred)
    termination_epoch: int | None
    final_prediction: float | None
    true_final_fitness: float


def example_curve(n_epochs: int = 25, *, seed: int = 2) -> np.ndarray:
    """A well-behaved concave learning curve like the paper's example.

    Drawn from the same family the engine models (plus mild noise), with
    an asymptote near 98% — representative of a medium-intensity NN.
    """
    rng = np.random.default_rng(seed)
    epochs = np.arange(1, n_epochs + 1, dtype=float)
    curve = 98.2 - (98.2 - 57.0) * np.exp(-0.35 * epochs)
    return np.clip(curve + rng.normal(0.0, 0.35, size=n_epochs), 0.0, 100.0)


def run_fig2(curve: np.ndarray | None = None) -> Fig2Result:
    """Drive the Table-1 engine over the example curve with Algorithm 1."""
    curve = example_curve() if curve is None else np.asarray(curve, dtype=float)
    predictions: list[tuple[int, float]] = []

    def record(epoch: int, fitness: float, prediction: float | None) -> None:
        if prediction is not None:
            predictions.append((epoch, prediction))

    result = run_training_loop(
        LearningCurveModel(curve),
        PredictionEngine(PAPER_ENGINE_CONFIG),
        len(curve),
        epoch_callback=record,
    )
    early = result.terminated_early
    return Fig2Result(
        fitness_curve=list(curve[: result.epochs_trained]),
        predictions=predictions,
        termination_epoch=result.epochs_trained if early else None,
        final_prediction=result.fitness if early else None,
        true_final_fitness=float(curve[-1]),
    )


def format_fig2(result: Fig2Result) -> str:
    """Render the per-epoch prediction trace and the convergence verdict."""
    table = ReportTable("epoch", "measured acc %", "predicted acc @25")
    preds = dict(result.predictions)
    for i, acc in enumerate(result.fitness_curve, start=1):
        table.row(i, acc, preds.get(i, "-"))
    lines = [table.render("Figure 2: prediction convergence example")]
    if result.termination_epoch is not None:
        lines.append(
            f"converged at epoch {result.termination_epoch} "
            f"(paper example: epoch 12); prediction {result.final_prediction:.2f}% "
            f"vs true epoch-25 fitness {result.true_final_fitness:.2f}%"
        )
    else:
        lines.append("did not converge within the budget")
    return "\n".join(lines)
