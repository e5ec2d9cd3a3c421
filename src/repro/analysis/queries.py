"""Queries over record trails.

The paper ships its commons with "a Python script demonstrating how to
load the data into a Pandas DataFrame and calculate metrics of
interest".  These are those metrics as plain functions over a list of
records: the best models, the mean fitness, the surrogate predictor's
training set, and how well its skips matched the run's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.lineage.records import ModelRecord
from repro.nas.genome import Genome

__all__ = [
    "top_by_fitness",
    "mean_fitness",
    "TrainingMatrix",
    "training_matrix",
    "SkipReport",
    "skip_report",
]


def top_by_fitness(records: Iterable[ModelRecord], k: int) -> list[ModelRecord]:
    """The ``k`` highest-fitness records (record order among ties)."""
    scored = [r for r in records if r.fitness is not None]
    return sorted(scored, key=lambda r: -r.fitness)[:k]


def mean_fitness(records: Iterable[ModelRecord]) -> float:
    """Mean fitness over the evaluated records."""
    values = [r.fitness for r in records if r.fitness is not None]
    if not values:
        raise ValueError("no evaluated records")
    return float(np.mean(values))


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
    """``(features, fitness)`` export for the surrogate predictor.

    Each row is :func:`~repro.nas.surrogate.genome_features` of the
    record's stored genome and FLOPs, the row the live predictor builds.

    ``full_budget_only`` keeps exactly the rows the in-run
    :class:`~repro.nas.surrogate.FitnessPredictor` trains on: clean
    (non-quarantined) full-budget evaluations with at least one trained
    epoch — probes and zero-budget skips are excluded so the exported
    model is never fit to its own predictions.
    """
    from repro.nas.surrogate import genome_feature_names, genome_features

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

    return TrainingMatrix(
        features=np.asarray(
            [genome_features(Genome.from_dict(r.genome), r.flops) for r in eligible],
            dtype=float,
        ),
        fitness=np.asarray([r.fitness for r in eligible], dtype=float),
        model_ids=np.asarray([r.model_id for r in eligible], dtype=int),
        feature_names=tuple(genome_feature_names(nodes_per_phase)),
    )


@dataclass(frozen=True)
class SkipReport:
    """How well the surrogate's skip decisions matched the run's outcome.

    A scored record is a true loser when a reference record Pareto
    dominates its ``(fitness, flops)``.  With ``basis="true"`` (a
    sampled run, see :func:`skip_report`) every fitness is the last
    value of the record's true curve, the reference is every record
    with one.  With ``basis="estimate"`` the reference is the
    full-budget records, and a probed record is judged by the
    *predicted* fitness that flagged it (its recorded fitness is a
    reduced-budget measurement) — so a flag is almost always confirmed.
    On either basis a quarantined record is left out: it never trained.
    """

    n_scored: int  # candidates the predictor scored
    n_flagged: int  # scored candidates flagged as predicted losers
    n_probed: int  # flagged candidates actually given a reduced budget
    n_true_losers: int  # scored candidates dominated by the reference
    precision: float | None  # flagged -> true loser
    recall: float | None  # true loser -> flagged
    mae: float | None  # |predicted - judged fitness| over n_mae records
    n_mae: int
    basis: str  # "true" or "estimate"


def skip_report(records: Iterable[ModelRecord], *, truth: dict | None = None) -> SkipReport:
    """Per-run skip precision/recall and prediction error.

    ``truth`` is :func:`~repro.analysis.curves.true_curves` of a sampled
    run: every scored record and every reference record is then judged
    by the last value of its true curve, and ``mae`` compares each
    prediction with that value; records without a curve are left out.
    Without it (a real run) the report is an estimate, as
    :class:`SkipReport` describes.
    """
    # a quarantined record never trained (and has no curve): there is
    # nothing to judge it by
    records = [r for r in records if not r.quarantined]
    if truth is None:
        def judged(r):
            return r.predicted_fitness if r.budget_assigned is not None else r.fitness

        reference = [
            r
            for r in records
            if r.budget_assigned is None and r.fitness is not None and r.flops is not None
        ]
    else:
        records = reference = [r for r in records if r.model_id in truth]

        def judged(r):
            return float(truth[r.model_id][-1])
    ref_fitness = np.asarray([judged(r) for r in reference], dtype=float)
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
        fitness = judged(r)
        loser = fitness is not None and dominated(float(fitness), float(r.flops))
        true_losers += loser
        caught += loser and r.skip_reason is not None
        if fitness is not None and (truth is not None or r.budget_assigned is None):
            errors.append(abs(float(r.predicted_fitness) - float(fitness)))
    return SkipReport(
        n_scored=len(scored),
        n_flagged=len(flagged),
        n_probed=n_probed,
        n_true_losers=true_losers,
        precision=caught / len(flagged) if flagged else None,
        recall=caught / true_losers if true_losers else None,
        mae=float(np.mean(errors)) if errors else None,
        n_mae=len(errors),
        basis="estimate" if truth is None else "true",
    )

