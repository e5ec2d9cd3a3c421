"""Pareto-frontier analytics over accuracy/FLOPs (paper Fig. 6).

Works on anything exposing ``fitness`` (percent, maximize) and ``flops``
(minimize) — live :class:`~repro.nas.population.Individual` objects or
commons :class:`~repro.lineage.records.ModelRecord` trails.
"""

from __future__ import annotations

import numpy as np

from repro.nas.nsga2 import pareto_front_mask

__all__ = ["ParetoPoint", "pareto_frontier", "hypervolume_2d", "anytime_hypervolume"]


class ParetoPoint:
    """One non-dominated model's headline metrics."""

    __slots__ = ("model_id", "fitness", "flops")

    def __init__(self, model_id: int, fitness: float, flops: float) -> None:
        self.model_id = int(model_id)
        self.fitness = float(fitness)
        self.flops = float(flops)

    def __repr__(self) -> str:
        return (
            f"ParetoPoint(model={self.model_id}, acc={self.fitness:.2f}%, "
            f"flops={self.flops:,.0f})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParetoPoint)
            and (self.model_id, self.fitness, self.flops)
            == (other.model_id, other.fitness, other.flops)
        )


def _extract(models) -> tuple[np.ndarray, list]:
    ids, rows = [], []
    for m in models:
        fitness = m.fitness
        flops = m.flops
        if fitness is None or flops is None:
            raise ValueError(f"model {getattr(m, 'model_id', '?')} lacks fitness/flops")
        ids.append(m.model_id)
        rows.append((-float(fitness), float(flops)))  # minimization form
    return np.asarray(rows, dtype=float).reshape(-1, 2), ids


def pareto_frontier(models) -> list[ParetoPoint]:
    """Non-dominated models, sorted by ascending FLOPs.

    A model is on the frontier when no other model has both higher
    accuracy and lower-or-equal FLOPs (and at least one strictly).
    """
    models = list(models)
    if not models:
        return []
    objectives, ids = _extract(models)
    mask = pareto_front_mask(objectives)
    points = [
        ParetoPoint(ids[i], -objectives[i, 0], objectives[i, 1])
        for i in np.flatnonzero(mask)
    ]
    return sorted(points, key=lambda p: (p.flops, -p.fitness))


def hypervolume_2d(
    points: list[ParetoPoint], *, ref_fitness: float = 0.0, ref_flops: float | None = None
) -> float:
    """Dominated hypervolume of a 2-D frontier (accuracy ↑ × FLOPs ↓).

    The reference point is (``ref_fitness``, ``ref_flops``);
    ``ref_flops`` defaults to the frontier's max FLOPs (making the
    metric scale-free per frontier unless pinned by the caller).  A
    point at or past ``ref_flops`` dominates nothing inside the box.
    """
    if not points:
        return 0.0
    pts = sorted(points, key=lambda p: p.flops)
    if ref_flops is None:
        ref_flops = max(p.flops for p in pts)
    volume = 0.0
    best_so_far = ref_fitness
    # sweep from cheap to expensive; each segment contributes width ×
    # (best accuracy achievable at or below that cost − reference)
    for i, p in enumerate(pts):
        right = min(pts[i + 1].flops, ref_flops) if i + 1 < len(pts) else ref_flops
        best_so_far = max(best_so_far, p.fitness)
        width = max(right - p.flops, 0.0)
        volume += width * max(best_so_far - ref_fitness, 0.0)
    return volume


def anytime_hypervolume(
    records, *, ref: tuple[float, float], fitness: dict | None = None
) -> list[tuple[int, float]]:
    """Executed epochs against the archive front's hypervolume, per commit.

    Walks ``records`` in commit (model-id) order and, after each commit,
    pairs the epochs executed so far with :func:`hypervolume_2d` of the
    front of every model committed so far, at the fixed reference
    ``ref = (ref_fitness, ref_flops)`` (a model at or past ``ref_flops``
    adds nothing to it).  A cache hit trained nothing, so it adds no
    executed epochs; its result still joins the front.  ``fitness``
    optionally maps a model id to its true fitness, which then replaces
    the recorded one.  The curve never decreases and does not depend on
    the order ``records`` come in.
    """
    ref_fitness, ref_flops = ref
    front: list[ParetoPoint] = []
    executed = 0
    curve = []
    for record in sorted(records, key=lambda r: r.model_id):
        value = record.fitness if fitness is None else fitness[record.model_id]
        if value is None or record.flops is None:
            raise ValueError(f"model {record.model_id} lacks fitness/flops")
        if not record.cache_hit:
            executed += record.epochs_trained
        # the front of the archive is the front of the last front plus the commit
        front = pareto_frontier([*front, ParetoPoint(record.model_id, value, record.flops)])
        curve.append(
            (executed, hypervolume_2d(front, ref_fitness=ref_fitness, ref_flops=ref_flops))
        )
    return curve
