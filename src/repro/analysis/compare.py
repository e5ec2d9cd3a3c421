"""Run-to-run comparison analytics.

The paper's headline evaluation is a *paired* comparison — A4NN vs the
standalone NAS on identical settings.  This module compares any two
published runs from record trails alone, so the same analysis works on
live results or on a commons loaded years later.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lineage.records import ModelRecord

__all__ = ["RunComparison", "compare_runs"]


@dataclass(frozen=True)
class RunComparison:
    """Headline deltas between two runs (conventionally A4NN vs baseline).

    Attributes
    ----------
    n_models:
        (models in a, models in b).
    epochs_trained:
        Total epochs per run.
    epochs_saved_percent:
        Relative epoch savings of run *a* vs run *b* in percent
        (positive = a trained fewer epochs).
    best_fitness:
        Best reported fitness per run.
    """

    n_models: tuple
    epochs_trained: tuple
    epochs_saved_percent: float
    best_fitness: tuple


def compare_runs(
    records_a: list[ModelRecord], records_b: list[ModelRecord]
) -> RunComparison:
    """Compare two runs' record trails (a vs b)."""
    if not records_a or not records_b:
        raise ValueError("both runs need at least one record")
    epochs_a = sum(r.epochs_trained for r in records_a)
    epochs_b = sum(r.epochs_trained for r in records_b)
    fitness_a = [float(r.fitness) for r in records_a if r.fitness is not None]
    fitness_b = [float(r.fitness) for r in records_b if r.fitness is not None]
    if not fitness_a or not fitness_b:
        raise ValueError("both runs need at least one evaluated record")
    return RunComparison(
        n_models=(len(records_a), len(records_b)),
        epochs_trained=(epochs_a, epochs_b),
        epochs_saved_percent=100.0 * (epochs_b - epochs_a) / epochs_b if epochs_b else 0.0,
        best_fitness=(max(fitness_a), max(fitness_b)),
    )
