"""NSGA-II machinery: non-dominated sorting, crowding, selection.

All routines operate on plain objective arrays shaped
``(n_individuals, n_objectives)`` under the *minimization* convention
(the search negates accuracy before calling in here), keeping this
module reusable and easy to property-test.
"""

from __future__ import annotations

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


def _as_objectives(objectives) -> np.ndarray:
    arr = np.asarray(objectives, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"objectives must be (n, m), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("objectives must be finite")
    return arr


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: a <= b everywhere, < somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def _dominance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``dom[i, j]`` = row ``a[i]`` dominates row ``b[j]``.

    One 2-D comparison per objective: reducing a stacked ``(n, n, m)``
    comparison over its short last axis costs ten times the compares.
    """
    less_equal = np.ones((len(a), len(b)), dtype=bool)
    strictly_less = np.zeros((len(a), len(b)), dtype=bool)
    for k in range(a.shape[1]):
        mine, theirs = a[:, k, None], b[None, :, k]
        less_equal &= mine <= theirs
        strictly_less |= mine < theirs
    return less_equal & strictly_less


def fast_non_dominated_sort(objectives) -> list[np.ndarray]:
    """Deb's fast non-dominated sort.

    Returns fronts as index arrays; front 0 is the Pareto-optimal set.
    Dominance is one vectorized ``(n, n)`` boolean matrix — O(m·n²)
    time, O(n²) memory — instead of a Python triple loop.  Every
    selection routine below sorts through here, so this is also where
    their input is validated, once.
    """
    arr = _as_objectives(objectives)
    n = arr.shape[0]
    if n == 0:
        return []
    dom = _dominance(arr, arr)

    fronts: list[np.ndarray] = []
    remaining = np.ones(n, dtype=bool)
    counts = dom.sum(axis=0)  # how many dominate each j
    while remaining.any():
        current = remaining & (counts == 0)
        if not current.any():
            raise RuntimeError("non-dominated sort failed to make progress")
        fronts.append(np.flatnonzero(current))
        remaining &= ~current
        # removing the current front decrements dominated counts
        counts = counts - dom[current].sum(axis=0)
    return fronts


def crowding_distance(objectives) -> np.ndarray:
    """Crowding distance of each individual *within the given set*.

    Boundary points per objective get infinite distance; interior points
    accumulate normalized neighbour gaps.  Constant objectives
    contribute nothing.
    """
    return _crowding(_as_objectives(objectives))


def _crowding(arr: np.ndarray) -> np.ndarray:
    """:func:`crowding_distance` of an already validated array."""
    n, m = arr.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(arr[:, k], kind="stable")
        values = arr[order, k]
        span = values[-1] - values[0]
        if span > 0:
            # Every point *tied* with a boundary value is a boundary
            # point; marking only order[0]/order[-1] would hand inf to
            # whichever duplicate the stable sort happened to place
            # first/last, making selection depend on input order.  A
            # constant objective (span == 0) stays degenerate and
            # contributes nothing, exactly as before.
            distance[order[values == values[0]]] = np.inf
            distance[order[values == values[-1]]] = np.inf
            distance[order[1:-1]] += (values[2:] - values[:-2]) / span
    return distance


def crowded_compare(rank_a: int, dist_a: float, rank_b: int, dist_b: float) -> bool:
    """NSGA-II's partial order: True when a beats b."""
    if rank_a != rank_b:
        return rank_a < rank_b
    return dist_a > dist_b


def environmental_selection(objectives, k: int) -> np.ndarray:
    """Select ``k`` survivor indices by rank, then crowding within the cut front."""
    arr = np.asarray(objectives, dtype=float)
    fronts = fast_non_dominated_sort(arr)  # validates arr
    if not 0 <= k <= arr.shape[0]:
        raise ValueError(f"k must be in [0, {arr.shape[0]}], got {k}")
    survivors: list[int] = []
    for front in fronts:
        if len(survivors) + len(front) <= k:
            survivors.extend(front.tolist())
            if len(survivors) == k:
                break
        else:
            need = k - len(survivors)
            dist = _crowding(arr[front])
            # most-crowded-last: take the `need` largest distances
            keep = front[np.argsort(-dist, kind="stable")[:need]]
            survivors.extend(keep.tolist())
            break
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
    arr = np.asarray(objectives, dtype=float)
    fronts = fast_non_dominated_sort(arr)  # validates arr
    if arr.shape[0] < 2:
        raise ValueError("steady eviction needs at least two members")
    last_front = fronts[-1]
    dist = _crowding(arr[last_front])
    # mirror environmental_selection's most-crowded-first stable ordering
    return int(last_front[np.argsort(-dist, kind="stable")[-1]])


def binary_tournament(
    objectives, rng: np.random.Generator, *, n_winners: int
) -> np.ndarray:
    """Binary tournament selection with the crowded-comparison operator.

    Ranks and crowding are computed once over the whole pool; each
    winner comes from an independent random pairing.
    """
    arr = np.asarray(objectives, dtype=float)
    fronts = fast_non_dominated_sort(arr)  # validates arr
    n = arr.shape[0]
    if n == 0:
        raise ValueError("cannot run a tournament on an empty pool")
    ranks = np.empty(n, dtype=int)
    distances = np.empty(n)
    for rank, front in enumerate(fronts):
        ranks[front] = rank
        distances[front] = _crowding(arr[front])

    winners = np.empty(n_winners, dtype=int)
    for t in range(n_winners):
        i, j = rng.integers(0, n, size=2)
        winners[t] = i if crowded_compare(ranks[i], distances[i], ranks[j], distances[j]) else j
    return winners


def pareto_front_mask(objectives) -> np.ndarray:
    """Boolean mask of Pareto-optimal individuals (minimization)."""
    arr = _as_objectives(objectives)
    return ~_dominance(arr, arr).any(axis=0)


def pareto_front_insert(front, point) -> np.ndarray | None:
    """One step of an incrementally maintained Pareto front.

    ``front`` is the ``(f, m)`` objectives of a mutually non-dominated
    set, ``point`` one new ``(m,)`` candidate.  ``None`` when a member
    dominates ``point`` (the front stands); otherwise the mask of the
    members ``point`` does *not* dominate — they survive, in order, and
    ``point`` joins behind them.  Equal points neither dominate nor are
    dominated, so duplicates accumulate as :func:`pareto_front_mask`
    keeps them: at every prefix both select the same members.
    """
    front = _as_objectives(front)
    point = _as_objectives(np.asarray(point, dtype=float)[None, :])
    if _dominance(front, point).any():
        return None
    return ~_dominance(point, front)[0]
