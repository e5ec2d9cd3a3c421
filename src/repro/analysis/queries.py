"""Query interface over the data commons.

The paper ships its commons with "a Python script demonstrating how to
load the data into a Pandas DataFrame and calculate metrics of
interest".  This module is that capability as a library: tabular export
(list-of-dicts / structured numpy), attribute filters, and the summary
metrics the paper mentions (mean accuracy, learning-rate-style gain per
epoch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord
from repro.nas.genome import PhaseGenome, n_connection_bits

__all__ = [
    "CommonsQuery",
    "records_to_table",
    "TrainingMatrix",
    "training_matrix",
    "SkipReport",
    "skip_report",
]


def records_to_table(records: Iterable[ModelRecord]) -> list[dict]:
    """Flatten record trails into analysis-friendly rows."""
    rows = []
    for r in records:
        history = np.asarray(r.fitness_history, dtype=float)
        gain_per_epoch = (
            float((history[-1] - history[0]) / max(len(history) - 1, 1))
            if history.size >= 2
            else 0.0
        )
        rows.append(
            {
                "model_id": r.model_id,
                "generation": r.generation,
                "fitness": r.fitness,
                "measured_fitness": r.measured_fitness,
                "flops": r.flops,
                "epochs_trained": r.epochs_trained,
                "epochs_saved": r.epochs_saved,
                "terminated_early": r.terminated_early,
                "mean_accuracy": float(history.mean()) if history.size else None,
                "gain_per_epoch": gain_per_epoch,
                "n_predictions": len(r.prediction_history),
                "genome_bits": "".join(str(b) for b in r.genome["bits"]),
            }
        )
    return rows


@dataclass(frozen=True)
class TrainingMatrix:
    """The surrogate predictor's training set, exported from record trails.

    ``features`` rows match :func:`repro.nas.surrogate.genome_features`
    exactly (same column order; see ``feature_names``), so an offline
    refit over the commons reproduces the in-run predictor.
    """

    features: np.ndarray  # (n, d) float
    fitness: np.ndarray  # (n,) float
    model_ids: np.ndarray  # (n,) int
    feature_names: tuple


def training_matrix(
    records: Iterable[ModelRecord], *, full_budget_only: bool = True
) -> TrainingMatrix:
    """Vectorized ``(features, fitness)`` export for the surrogate predictor.

    One pass over the records builds the connection-bit matrix and reduces
    it with array sums; per-phase DAG depth (the only non-linear feature)
    is memoized per unique phase bit pattern, so the whole export is
    O(records) plus one depth computation per *distinct* phase topology.

    ``full_budget_only`` keeps exactly the rows the in-run
    :class:`~repro.nas.surrogate.FitnessPredictor` trains on: clean
    (non-quarantined) full-budget evaluations with at least one trained
    epoch — probes and zero-budget skips are excluded so the exported
    model is never fit to its own predictions.
    """
    from repro.nas.surrogate import genome_feature_names, phase_depth

    eligible = [
        r
        for r in records
        if r.fitness is not None
        and r.flops is not None
        and not r.quarantined
        and (
            not full_budget_only
            or (r.budget_assigned is None and r.epochs_trained > 0)
        )
    ]
    if not eligible:
        return TrainingMatrix(
            features=np.zeros((0, 0), dtype=float),
            fitness=np.zeros(0, dtype=float),
            model_ids=np.zeros(0, dtype=int),
            feature_names=(),
        )
    nodes_per_phase = tuple(eligible[0].genome["nodes_per_phase"])
    if any(tuple(r.genome["nodes_per_phase"]) != nodes_per_phase for r in eligible):
        raise ValueError("training_matrix requires a homogeneous search space")

    bits = np.asarray([r.genome["bits"] for r in eligible], dtype=float)
    flops = np.asarray([r.flops for r in eligible], dtype=float)
    columns = [np.ones(len(eligible))]
    cursor = 0
    total_connections = np.zeros(len(eligible))
    total_skips = np.zeros(len(eligible))
    for n_nodes in nodes_per_phase:
        width = n_connection_bits(n_nodes) + 1
        phase_bits = bits[:, cursor : cursor + width]
        cursor += width
        connections = phase_bits[:, :-1].sum(axis=1)
        skips = phase_bits[:, -1]
        patterns, inverse = np.unique(phase_bits.astype(int), axis=0, return_inverse=True)
        depths = np.asarray(
            [phase_depth(PhaseGenome(n_nodes, tuple(p))) for p in patterns], dtype=float
        )
        columns += [connections, skips, depths[inverse]]
        total_connections += connections
        total_skips += skips
    max_connections = sum(n_connection_bits(n) for n in nodes_per_phase)
    max_skips = len(nodes_per_phase)
    density = np.clip(
        (total_connections + total_skips) / max(max_connections + max_skips, 1),
        0.0,
        1.0,
    )
    columns += [total_connections, total_skips, density, np.log10(1.0 + flops)]
    return TrainingMatrix(
        features=np.column_stack(columns),
        fitness=np.asarray([r.fitness for r in eligible], dtype=float),
        model_ids=np.asarray([r.model_id for r in eligible], dtype=int),
        feature_names=tuple(genome_feature_names(nodes_per_phase)),
    )


@dataclass(frozen=True)
class SkipReport:
    """How well the surrogate's skip decisions matched the run's outcome.

    Ground truth for "loser" is Pareto dominance against the run's clean
    full-budget records: a record is a true loser when at least one of
    them dominates its ``(fitness, flops)``.  Probed/skipped records are
    judged by their *predicted* fitness (their recorded fitness is a
    reduced-budget measurement, which would overstate how bad they were).
    """

    n_scored: int  # candidates the predictor scored
    n_flagged: int  # scored candidates flagged as predicted losers
    n_probed: int  # flagged candidates actually given a reduced budget
    n_true_losers: int  # scored candidates dominated by the final records
    precision: float | None  # flagged -> true loser
    recall: float | None  # true loser -> flagged
    mae: float | None  # |predicted - measured| on full-budget scored records
    n_mae: int


def skip_report(records: Iterable[ModelRecord]) -> SkipReport:
    """Per-run skip precision/recall and prediction error (vectorized)."""
    records = list(records)
    reference = [
        r
        for r in records
        if not r.quarantined
        and r.budget_assigned is None
        and r.fitness is not None
        and r.flops is not None
    ]
    ref_fitness = np.asarray([r.fitness for r in reference], dtype=float)
    ref_flops = np.asarray([r.flops for r in reference], dtype=float)

    def dominated(fitness: float, flops: float) -> bool:
        if not reference:
            return False
        at_least = (ref_fitness >= fitness) & (ref_flops <= flops)
        strict = (ref_fitness > fitness) | (ref_flops < flops)
        return bool(np.any(at_least & strict))

    scored = [r for r in records if r.predicted_fitness is not None]
    flagged = [r for r in scored if r.skip_reason is not None]
    n_probed = sum(1 for r in flagged if r.budget_assigned is not None)

    true_losers = 0
    caught = 0
    errors = []
    for r in scored:
        estimate = (
            r.predicted_fitness if r.budget_assigned is not None else r.fitness
        )
        loser = estimate is not None and dominated(float(estimate), float(r.flops))
        true_losers += loser
        caught += loser and r.skip_reason is not None
        if r.budget_assigned is None and r.fitness is not None:
            errors.append(abs(float(r.predicted_fitness) - float(r.fitness)))
    return SkipReport(
        n_scored=len(scored),
        n_flagged=len(flagged),
        n_probed=n_probed,
        n_true_losers=true_losers,
        precision=caught / len(flagged) if flagged else None,
        recall=caught / true_losers if true_losers else None,
        mae=float(np.mean(errors)) if errors else None,
        n_mae=len(errors),
    )


class CommonsQuery:
    """Fluent filters over one run's (or the whole commons') records.

    >>> q = CommonsQuery.from_commons(commons, run_id)
    >>> best = q.where(lambda r: r.terminated_early).top_by_fitness(5)
    """

    def __init__(self, records: Iterable[ModelRecord]) -> None:
        self.records = list(records)

    @classmethod
    def from_commons(cls, commons: DataCommons, run_id: str | None = None) -> "CommonsQuery":
        """All records of one run, or of every run when ``run_id`` is None."""
        if run_id is not None:
            return cls(commons.load_models(run_id))
        return cls(record for _, record in commons.iter_all_models())

    def where(self, predicate: Callable[[ModelRecord], bool]) -> "CommonsQuery":
        """Keep records satisfying ``predicate``."""
        return CommonsQuery([r for r in self.records if predicate(r)])

    def terminated_early(self) -> "CommonsQuery":
        return self.where(lambda r: r.terminated_early)

    def in_generation(self, generation: int) -> "CommonsQuery":
        return self.where(lambda r: r.generation == generation)

    def fitness_at_least(self, threshold: float) -> "CommonsQuery":
        return self.where(lambda r: r.fitness is not None and r.fitness >= threshold)

    def top_by_fitness(self, k: int) -> list[ModelRecord]:
        """The ``k`` highest-fitness records."""
        scored = [r for r in self.records if r.fitness is not None]
        return sorted(scored, key=lambda r: -r.fitness)[:k]

    def table(self) -> list[dict]:
        """Flattened rows (see :func:`records_to_table`)."""
        return records_to_table(self.records)

    # -- aggregate metrics ------------------------------------------------------

    def mean_fitness(self) -> float:
        values = [r.fitness for r in self.records if r.fitness is not None]
        if not values:
            raise ValueError("no evaluated records in query")
        return float(np.mean(values))

    def mean_epochs_trained(self) -> float:
        if not self.records:
            raise ValueError("no records in query")
        return float(np.mean([r.epochs_trained for r in self.records]))

    def total_epochs_saved(self) -> int:
        return sum(r.epochs_saved for r in self.records)

    def __len__(self) -> int:
        return len(self.records)
