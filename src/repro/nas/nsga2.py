"""NSGA-II machinery for two objectives: sorting, crowding, selection.

Every routine takes ``(n, 2)`` objective rows (an array, or ``(f0, f1)``
pairs) under the *minimization* convention — the search and
:mod:`repro.analysis.pareto` pass ``(-accuracy, FLOPs)`` — and works on
plain Python floats.  Any other width, and any non-finite value, raises
``ValueError``.  Two objectives make the non-dominated sort one sorted
sweep (Jensen, IEEE TEC 7(5), 2003), O(n log n) in place of a pairwise
dominance matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf, isfinite

import numpy as np

__all__ = [
    "dominates",
    "fast_non_dominated_sort",
    "crowding_distance",
    "crowded_compare",
    "environmental_selection",
    "steady_eviction",
    "binary_tournament",
    "pareto_front_mask",
    "pareto_front_insert",
]


def _rows(objectives) -> list[tuple[float, float]]:
    """``objectives`` as ``(f0, f1)`` float pairs; other widths and non-finite values raise."""
    if isinstance(objectives, np.ndarray):
        if objectives.ndim != 2 or objectives.shape[1] != 2:
            raise ValueError(f"objectives must be (n, 2), got shape {objectives.shape}")
        objectives = objectives.tolist()
    try:
        rows = [(float(f0), float(f1)) for f0, f1 in objectives]
    except (TypeError, ValueError):
        raise ValueError("objectives must be (n, 2): one (f0, f1) pair per row") from None
    if not all(isfinite(f0) and isfinite(f1) for f0, f1 in rows):
        raise ValueError("objectives must be finite")
    return rows


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: a <= b in both objectives, < in one."""
    (a0, a1), (b0, b1) = a, b
    return a0 <= b0 and a1 <= b1 and (a0 < b0 or a1 < b1)


def _sweep(rows: list[tuple[float, float]]) -> list[list[int]]:
    """Fronts of ``rows`` as ascending index lists; front 0 is the Pareto set.

    In stable ``(f0, f1)`` order a row's dominators all precede it, and a
    front's last row dominates it exactly when some member does: when
    that row's ``(f1, f0)`` is smaller.  Those keys increase from front
    to front, so bisection finds the first front that does not.
    """
    fronts: list[list[int]] = []
    lasts: list[tuple[float, float]] = []  # (f1, f0) of each front's last row
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        f0, f1 = rows[i]
        k = bisect_left(lasts, (f1, f0))
        if k == len(fronts):
            fronts.append([i])
            lasts.append((f1, f0))
        else:
            fronts[k].append(i)
            lasts[k] = (f1, f0)
    return [sorted(front) for front in fronts]


def fast_non_dominated_sort(objectives) -> list[np.ndarray]:
    """Fronts as ascending index arrays; front 0 is the Pareto-optimal set."""
    return [np.asarray(front, dtype=int) for front in _sweep(_rows(objectives))]


def crowding_distance(objectives) -> np.ndarray:
    """Crowding distance of each individual *within the given set*.

    Boundary points per objective get infinite distance; interior points
    accumulate normalized neighbour gaps.  Constant objectives
    contribute nothing.
    """
    return np.array(_crowding(_rows(objectives)), dtype=float)


def _crowding(rows: list[tuple[float, float]]) -> list[float]:
    """:func:`crowding_distance` of already validated rows."""
    n = len(rows)
    if n <= 2:
        return [inf] * n
    distance = [0.0] * n
    for k in (0, 1):
        values = [row[k] for row in rows]
        order = sorted(range(n), key=values.__getitem__)
        low, high = values[order[0]], values[order[-1]]
        span = high - low
        if span > 0:
            # every point tied with a boundary value is a boundary point,
            # so duplicates get the same distance in any input order
            for i in order:
                if values[i] == low or values[i] == high:
                    distance[i] = inf
            for prev, i, nxt in zip(order, order[1:], order[2:]):
                distance[i] += (values[nxt] - values[prev]) / span
    return distance


def crowded_compare(rank_a: int, dist_a: float, rank_b: int, dist_b: float) -> bool:
    """NSGA-II's partial order: True when a beats b."""
    if rank_a != rank_b:
        return rank_a < rank_b
    return dist_a > dist_b


def environmental_selection(objectives, k: int) -> np.ndarray:
    """Select ``k`` survivor indices by rank, then crowding within the cut front."""
    rows = _rows(objectives)
    if not 0 <= k <= len(rows):
        raise ValueError(f"k must be in [0, {len(rows)}], got {k}")
    survivors: list[int] = []
    for front in _sweep(rows):
        need = k - len(survivors)
        if need <= 0:
            break
        if len(front) <= need:
            survivors.extend(front)
        else:
            # most crowded last: take the ``need`` largest distances
            distance = _crowding([rows[i] for i in front])
            order = sorted(range(len(front)), key=lambda t: -distance[t])
            survivors.extend(front[t] for t in order[:need])
    return np.asarray(survivors, dtype=int)


def steady_eviction(objectives) -> int:
    """Index of the single member to drop under one-in/one-out selection.

    The steady-state loop adds one settled offspring to the population
    and evicts exactly one member.  The victim is chosen with the same
    rule environmental selection applies at its cut front: worst rank
    first, least crowded within it — so evicting one from ``n`` members
    keeps precisely the ``n - 1`` survivors
    ``environmental_selection(objectives, n - 1)`` would keep.
    """
    rows = _rows(objectives)
    if len(rows) < 2:
        raise ValueError("steady eviction needs at least two members")
    last_front = _sweep(rows)[-1]
    distance = _crowding([rows[i] for i in last_front])
    # environmental_selection's order, most crowded last
    return last_front[sorted(range(len(last_front)), key=lambda t: -distance[t])[-1]]


def binary_tournament(objectives, rng: np.random.Generator, *, n_winners: int) -> np.ndarray:
    """Binary tournament selection with the crowded-comparison operator.

    The pool is sorted once; each winner comes from an independent
    random pairing.  Crowding only breaks a tie in rank, so a front's
    distances are computed the first time a pairing needs them.
    """
    rows = _rows(objectives)
    n = len(rows)
    if n == 0:
        raise ValueError("cannot run a tournament on an empty pool")
    fronts = _sweep(rows)
    ranks = {i: rank for rank, front in enumerate(fronts) for i in front}
    distances: dict[int, float] = {}

    def distance(i: int) -> float:
        if i not in distances:
            front = fronts[ranks[i]]
            distances.update(zip(front, _crowding([rows[t] for t in front])))
        return distances[i]

    winners = []
    for _ in range(n_winners):
        i, j = rng.integers(0, n, size=2).tolist()
        # crowded_compare, reading distances only on a tie in rank
        better = ranks[i] < ranks[j] if ranks[i] != ranks[j] else distance(i) > distance(j)
        winners.append(i if better else j)
    return np.asarray(winners, dtype=int)


def pareto_front_mask(objectives) -> np.ndarray:
    """Boolean mask of Pareto-optimal individuals (minimization)."""
    rows = _rows(objectives)
    mask = np.zeros(len(rows), dtype=bool)
    if rows:
        mask[_sweep(rows)[0]] = True
    return mask


def pareto_front_insert(front, point) -> list[bool] | None:
    """One step of an incrementally maintained Pareto front.

    ``front`` is the ``(f, 2)`` objectives of a mutually non-dominated
    set, ``point`` one new ``(f0, f1)`` candidate.  ``None`` when a
    member dominates ``point`` (the front stands); otherwise, per
    member, whether ``point`` does *not* dominate it — those survive, in
    order, and ``point`` joins behind them.  Equal points neither
    dominate nor are dominated, so duplicates accumulate as
    :func:`pareto_front_mask` keeps them: at every prefix both select
    the same members.
    """
    front = _rows(front)
    [point] = _rows([point])
    if any(dominates(member, point) for member in front):
        return None
    return [not dominates(point, member) for member in front]
