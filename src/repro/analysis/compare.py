"""Run-to-run comparison analytics.

The paper's headline evaluation is a *paired* comparison — A4NN vs the
standalone NAS on identical settings.  This module compares any two
published runs from record trails alone, so the same analysis works on
live results or on a commons loaded years later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.pareto import ParetoPoint, hypervolume_2d, pareto_frontier
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
    best_fitness_delta:
        ``best(a) − best(b)``.
    frontier_sizes:
        Pareto-frontier sizes per run.
    hypervolume_ratio:
        ``HV(a) / HV(b)`` over a shared reference box (NaN when either
        frontier is degenerate).
    mean_generation_fitness:
        Per-generation mean fitness arrays (index = generation).
    """

    n_models: tuple
    epochs_trained: tuple
    epochs_saved_percent: float
    best_fitness: tuple
    best_fitness_delta: float
    frontier_sizes: tuple
    hypervolume_ratio: float
    mean_generation_fitness: tuple


def _generation_means(records: list[ModelRecord]) -> np.ndarray:
    by_generation: dict[int, list[float]] = {}
    for r in records:
        if r.fitness is not None:
            by_generation.setdefault(r.generation, []).append(float(r.fitness))
    if not by_generation:
        return np.zeros(0)
    return np.array(
        [np.mean(by_generation[g]) for g in sorted(by_generation)], dtype=float
    )


def _shared_hypervolume(
    frontier_a: list[ParetoPoint], frontier_b: list[ParetoPoint]
) -> float:
    """HV ratio over the union's reference box."""
    all_points = frontier_a + frontier_b
    if not frontier_a or not frontier_b:
        return float("nan")
    ref_flops = max(p.flops for p in all_points)
    ref_fitness = min(p.fitness for p in all_points) - 1.0
    hv_a = hypervolume_2d(frontier_a, ref_fitness=ref_fitness, ref_flops=ref_flops)
    hv_b = hypervolume_2d(frontier_b, ref_fitness=ref_fitness, ref_flops=ref_flops)
    if hv_b == 0:
        return float("nan")
    return hv_a / hv_b


def compare_runs(
    records_a: list[ModelRecord], records_b: list[ModelRecord]
) -> RunComparison:
    """Compare two runs' record trails (a vs b)."""
    if not records_a or not records_b:
        raise ValueError("both runs need at least one record")
    epochs_a = sum(r.epochs_trained for r in records_a)
    epochs_b = sum(r.epochs_trained for r in records_b)
    evaluated_a = [r for r in records_a if r.fitness is not None and r.flops is not None]
    evaluated_b = [r for r in records_b if r.fitness is not None and r.flops is not None]
    if not evaluated_a or not evaluated_b:
        raise ValueError("both runs need at least one evaluated record")
    best_a = max(float(r.fitness) for r in evaluated_a)
    best_b = max(float(r.fitness) for r in evaluated_b)
    frontier_a = pareto_frontier(evaluated_a)
    frontier_b = pareto_frontier(evaluated_b)
    return RunComparison(
        n_models=(len(records_a), len(records_b)),
        epochs_trained=(epochs_a, epochs_b),
        epochs_saved_percent=100.0 * (epochs_b - epochs_a) / epochs_b if epochs_b else 0.0,
        best_fitness=(best_a, best_b),
        best_fitness_delta=best_a - best_b,
        frontier_sizes=(len(frontier_a), len(frontier_b)),
        hypervolume_ratio=_shared_hypervolume(frontier_a, frontier_b),
        mean_generation_fitness=(
            _generation_means(records_a),
            _generation_means(records_b),
        ),
    )
