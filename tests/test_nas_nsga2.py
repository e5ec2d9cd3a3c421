"""Tests for the NSGA-II machinery, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nas.nsga2 import (
    binary_tournament,
    crowded_compare,
    crowding_distance,
    dominates,
    environmental_selection,
    fast_non_dominated_sort,
    pareto_front_mask,
    steady_eviction,
)

objective_arrays = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 40), st.just(2)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([1, 1], [2, 2])
        assert dominates([1, 2], [1, 3])

    def test_equal_does_not_dominate(self):
        assert not dominates([1, 2], [1, 2])

    def test_incomparable(self):
        assert not dominates([1, 3], [3, 1])
        assert not dominates([3, 1], [1, 3])


class TestNonDominatedSort:
    def test_simple_fronts(self):
        objectives = np.array([[1, 1], [2, 2], [0, 3], [3, 3]])
        fronts = fast_non_dominated_sort(objectives)
        assert sorted(fronts[0].tolist()) == [0, 2]
        assert fronts[1].tolist() == [1]
        assert fronts[2].tolist() == [3]

    def test_all_identical_single_front(self):
        fronts = fast_non_dominated_sort(np.ones((5, 2)))
        assert len(fronts) == 1
        assert len(fronts[0]) == 5

    def test_chain_gives_singleton_fronts(self):
        objectives = np.array([[i, i] for i in range(6)])
        fronts = fast_non_dominated_sort(objectives)
        assert [len(f) for f in fronts] == [1] * 6

    def test_empty(self):
        assert fast_non_dominated_sort(np.zeros((0, 2))) == []

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_widths_other_than_two(self, width, rng):
        objectives = np.ones((4, width))
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            fast_non_dominated_sort(objectives)
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            fast_non_dominated_sort(objectives.tolist())
        for select in (
            crowding_distance,
            pareto_front_mask,
            steady_eviction,
            lambda arr: environmental_selection(arr, 2),
            lambda arr: binary_tournament(arr, rng, n_winners=2),
        ):
            with pytest.raises(ValueError):
                select(objectives)

    @given(objective_arrays)
    @settings(max_examples=60, deadline=None)
    def test_property_partition_and_front_correctness(self, objectives):
        fronts = fast_non_dominated_sort(objectives)
        # fronts partition the population
        combined = np.concatenate(fronts)
        assert sorted(combined.tolist()) == list(range(objectives.shape[0]))
        # nothing in front k is dominated by anything in front >= k
        for k, front in enumerate(fronts):
            later = np.concatenate(fronts[k:])
            for i in front:
                assert not any(
                    dominates(objectives[j], objectives[i]) for j in later
                )
        # everything in front k+1 is dominated by something in front k
        for k in range(len(fronts) - 1):
            for j in fronts[k + 1]:
                assert any(
                    dominates(objectives[i], objectives[j]) for i in fronts[k]
                )


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        objectives = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(objectives)
        assert np.isinf(distance[0]) and np.isinf(distance[3])
        assert np.isfinite(distance[1]) and np.isfinite(distance[2])

    def test_two_or_fewer_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))))

    def test_constant_objective_contributes_nothing(self):
        objectives = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        distance = crowding_distance(objectives)
        assert np.isfinite(distance[1])

    def test_duplicate_extremes_all_infinite(self):
        # regression: with duplicated boundary vectors, only the
        # stable-sort-first/last duplicate used to get inf, so identical
        # points received asymmetric distances depending on input order
        objectives = np.array(
            [[0.0, 3.0], [0.0, 3.0], [1.0, 2.0], [3.0, 0.0], [3.0, 0.0]]
        )
        distance = crowding_distance(objectives)
        assert np.isinf(distance[0]) and np.isinf(distance[1])
        assert np.isinf(distance[3]) and np.isinf(distance[4])
        assert np.isfinite(distance[2])

    def test_duplicate_extremes_order_invariant(self, rng):
        objectives = np.array(
            [[0.0, 3.0], [1.0, 2.0], [0.0, 3.0], [2.0, 1.0], [3.0, 0.0], [3.0, 0.0]]
        )
        base = crowding_distance(objectives)
        for _ in range(10):
            perm = rng.permutation(len(objectives))
            permuted = crowding_distance(objectives[perm])
            np.testing.assert_array_equal(permuted, base[perm])

    def test_denser_points_lower_distance(self):
        objectives = np.array(
            [[0.0, 0.0], [1.0, 1.0], [1.05, 1.05], [1.1, 1.1], [5.0, 5.0]]
        )
        distance = crowding_distance(objectives)
        # point 2 sits in a tight cluster; point 1 has a wide gap to point 0
        assert distance[2] < distance[1]


class TestCrowdedCompare:
    def test_rank_wins(self):
        assert crowded_compare(0, 0.1, 1, 10.0)

    def test_distance_breaks_ties(self):
        assert crowded_compare(1, 5.0, 1, 2.0)
        assert not crowded_compare(1, 2.0, 1, 5.0)


class TestEnvironmentalSelection:
    def test_selects_k(self):
        rng = np.random.default_rng(0)
        objectives = rng.normal(size=(20, 2))
        survivors = environmental_selection(objectives, 8)
        assert len(survivors) == 8
        assert len(set(survivors.tolist())) == 8

    def test_first_front_prioritized(self):
        objectives = np.array([[0.0, 0.0], [5.0, 5.0], [6.0, 6.0]])
        survivors = environmental_selection(objectives, 1)
        assert survivors.tolist() == [0]

    def test_k_zero_and_k_full(self):
        objectives = np.ones((4, 2))
        assert len(environmental_selection(objectives, 0)) == 0
        assert sorted(environmental_selection(objectives, 4).tolist()) == [0, 1, 2, 3]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            environmental_selection(np.ones((3, 2)), 5)

    @given(objective_arrays, st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_property_pareto_front_survives(self, objectives, k):
        n = objectives.shape[0]
        k = min(k, n)
        survivors = set(environmental_selection(objectives, k).tolist())
        assert len(survivors) == k
        front = fast_non_dominated_sort(objectives)[0]
        if k >= len(front):
            assert set(front.tolist()) <= survivors


class TestBinaryTournament:
    def test_winner_count_and_validity(self, rng):
        objectives = rng.normal(size=(10, 2))
        winners = binary_tournament(objectives, rng, n_winners=7)
        assert winners.shape == (7,)
        assert np.all((winners >= 0) & (winners < 10))

    def test_dominant_point_always_beats(self, rng):
        # point 0 dominates everything: whenever sampled it must win
        objectives = np.vstack([[0.0, 0.0], np.full((5, 2), 10.0)])
        winners = binary_tournament(objectives, rng, n_winners=200)
        # the best point wins far more often than uniform (2/6 pairings include it)
        assert (winners == 0).mean() > 0.2

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(ValueError):
            binary_tournament(np.zeros((0, 2)), rng, n_winners=1)

    def test_sorts_pool_exactly_once(self, rng, monkeypatch):
        # regression: the tournament used to sort the pool twice per
        # call (once for ranks, once for distances)
        import repro.nas.nsga2 as nsga2_mod

        calls = {"n": 0}
        real_sweep = nsga2_mod._sweep

        def counting_sweep(rows):
            calls["n"] += 1
            return real_sweep(rows)

        monkeypatch.setattr(nsga2_mod, "_sweep", counting_sweep)
        objectives = rng.normal(size=(12, 2))
        seed_rng = np.random.default_rng(7)
        winners = binary_tournament(objectives, seed_rng, n_winners=8)
        assert calls["n"] == 1
        # and results are unchanged versus the two-sort reference
        monkeypatch.undo()
        arr = np.asarray(objectives, dtype=float)
        ranks = np.empty(len(arr), dtype=int)
        for rank, front in enumerate(fast_non_dominated_sort(arr)):
            ranks[front] = rank
        distances = np.empty(len(arr))
        for front in fast_non_dominated_sort(arr):
            distances[front] = crowding_distance(arr[front])
        ref_rng = np.random.default_rng(7)
        expected = np.empty(8, dtype=int)
        for t in range(8):
            i, j = ref_rng.integers(0, len(arr), size=2)
            expected[t] = (
                i
                if crowded_compare(ranks[i], distances[i], ranks[j], distances[j])
                else j
            )
        np.testing.assert_array_equal(winners, expected)


class TestSteadyEviction:
    def test_matches_environmental_selection(self, rng):
        for _ in range(20):
            objectives = rng.normal(size=(int(rng.integers(2, 15)), 2))
            victim = steady_eviction(objectives)
            survivors = environmental_selection(objectives, len(objectives) - 1)
            assert victim not in set(survivors.tolist())
            assert set(survivors.tolist()) | {victim} == set(range(len(objectives)))

    def test_evicts_dominated_member(self):
        objectives = np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 5.0]])
        assert steady_eviction(objectives) == 2

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            steady_eviction(np.array([[1.0, 2.0]]))


class TestParetoMask:
    def test_mask_matches_first_front(self, rng):
        objectives = rng.normal(size=(15, 2))
        mask = pareto_front_mask(objectives)
        front = set(fast_non_dominated_sort(objectives)[0].tolist())
        assert set(np.flatnonzero(mask).tolist()) == front

    def test_empty(self):
        assert pareto_front_mask(np.zeros((0, 2))).shape == (0,)
