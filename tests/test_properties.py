"""Hypothesis property tests on core invariants across subsystems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pareto import pareto_frontier
from repro.core.analyzer import ConvergenceAnalyzer
from repro.core.fitting import fit_curve
from repro.core.parametric import get_function
from repro.nas.genome import Genome, n_connection_bits
from repro.nas.operators import bitflip_mutation, uniform_crossover
from repro.nas.population import Individual
from repro.scheduler import fifo_schedule
from repro.utils.rng import derive_rng
from repro.xfel.noise import normalize_patterns

from tests.trf_oracle import sse_above, trf_fit

# -- strategies ---------------------------------------------------------------

bit_layouts = st.tuples(st.integers(2, 5), st.integers(1, 4))  # (nodes, phases)


@st.composite
def genomes(draw):
    nodes, phases = draw(bit_layouts)
    width = (n_connection_bits(nodes) + 1) * phases
    bits = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    return Genome.from_bits(bits, (nodes,) * phases)


curves = st.lists(
    st.floats(0.0, 100.0, allow_nan=False), min_size=3, max_size=30
)


class TestGenomeProperties:
    @given(genomes())
    @settings(max_examples=80, deadline=None)
    def test_bits_round_trip(self, genome):
        assert Genome.from_bits(genome.to_bits(), genome.nodes_per_phase) == genome
        assert Genome.from_dict(genome.to_dict()) == genome

    @given(genomes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mutation_preserves_layout(self, genome, seed):
        rng = derive_rng(seed, "mut")
        mutated = bitflip_mutation(genome, rng, rate=0.5)
        assert mutated.nodes_per_phase == genome.nodes_per_phase
        assert len(mutated.to_bits()) == len(genome.to_bits())

    @given(genomes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_crossover_conserves_multiset_per_locus(self, genome, seed):
        rng = derive_rng(seed, "xov")
        other = bitflip_mutation(genome, rng, rate=0.5)
        child_a, child_b = uniform_crossover(genome, other, rng)
        for ca, cb, pa, pb in zip(
            child_a.to_bits(), child_b.to_bits(), genome.to_bits(), other.to_bits()
        ):
            assert sorted((ca, cb)) == sorted((pa, pb))


class TestAnalyzerProperties:
    @given(curves)
    @settings(max_examples=80, deadline=None)
    def test_verdict_depends_only_on_window(self, history):
        analyzer = ConvergenceAnalyzer()
        full = analyzer(history)
        windowed = analyzer(history[-analyzer.n_predictions :])
        assert full == windowed

    @given(curves, st.floats(0.01, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_looser_tolerance_never_unconverges(self, history, tolerance):
        strict = ConvergenceAnalyzer(tolerance=tolerance)
        loose = ConvergenceAnalyzer(tolerance=tolerance * 2)
        if strict(history):
            assert loose(history)


class TestFittingProperties:
    @given(
        st.floats(60.0, 99.0),
        st.floats(30.0, 55.0),
        st.floats(0.1, 0.8),
        st.integers(5, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_noise_free_round_trip(self, asymptote, start, rate, n):
        fn = get_function("exp3")
        x = np.arange(1, n + 1, dtype=float)
        y = asymptote - (asymptote - start) * np.exp(-rate * x)
        fit = fit_curve(fn, x, y)
        assert fit is not None
        # fitted curve reproduces the observations
        assert fit.rmse < 0.5

    @given(curves)
    @settings(max_examples=60, deadline=None)
    def test_fit_never_crashes_on_valid_fitness(self, history):
        fn = get_function("exp3")
        fit = fit_curve(fn, np.arange(1, len(history) + 1), history)
        if fit is not None:
            assert np.all(np.isfinite(fit.theta))


PROJECTED = ("exp3", "pow3", "log2", "ilog2")


@st.composite
def learning_curves(draw):
    """Rising, flat, falling, noisy and quantised curves of 3-25 points."""
    n = draw(st.integers(3, 25))
    x = np.arange(1, n + 1, dtype=float)
    kind = draw(st.sampled_from(["rising", "flat", "falling", "noisy", "quantised"]))
    if kind == "flat":
        return np.full(n, draw(st.floats(0.0, 100.0)))
    top = draw(st.floats(60.0, 100.0))
    bottom = draw(st.floats(20.0, 55.0))
    decay = np.exp(-draw(st.floats(0.05, 1.0)) * x)
    if kind == "falling":
        return bottom + (top - bottom) * decay
    y = top - (top - bottom) * decay
    if kind != "rising":
        noise = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        y = np.clip(y + np.asarray(noise), 0.0, 100.0)
    if kind == "quantised":
        # real-mode validation accuracy over 8 images moves in steps of 1/8
        y = np.round(y / 12.5) * 12.5
    return y


def in_bounds(fn, theta) -> bool:
    return bool(np.all(np.asarray(theta) >= fn.lower) and np.all(np.asarray(theta) <= fn.upper))


@pytest.mark.parametrize("name", PROJECTED)
class TestProjectedFitProperties:
    """Variable projection against the trust-region fit it replaced."""

    @given(learning_curves())
    @settings(max_examples=60, deadline=None)
    def test_in_bounds_and_never_worse_than_the_oracle(self, name, y):
        fn = get_function(name)
        x = np.arange(1, len(y) + 1, dtype=float)
        fit = fit_curve(fn, x, y)
        assert fit is not None
        assert in_bounds(fn, fit.theta)
        assert not sse_above(fit, trf_fit(fn, x, y))

    @given(learning_curves())
    @settings(max_examples=40, deadline=None)
    def test_pure_function_of_the_history(self, name, y):
        fn = get_function(name)
        x = np.arange(1, len(y) + 1, dtype=float)
        reference = fit_curve(fn, x, y)
        for cast in (list, tuple, np.array):
            again = fit_curve(fn, cast(x.tolist()), cast(y.tolist()))
            assert again.theta == reference.theta
            assert again.residual_norm == reference.residual_norm

    @given(st.integers(6, 25), st.floats(60.0, 99.0), st.floats(5.0, 40.0), st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_recovers_a_noiseless_curve_of_its_own_family(self, name, n, a, drop, shape):
        fn = get_function(name)
        # (a, drop, shape) read as each family's own parameters, inside its box
        truth = {
            "exp3": (a, 1.0 + shape, np.log(drop) / np.log(1.0 + shape)),
            "pow3": (a, drop, shape),
            "log2": (a - drop, drop * shape),
            "ilog2": (a, drop),
        }[name]
        x = np.arange(1, n + 1, dtype=float)
        fit = fit_curve(fn, x, fn(x, *truth))
        assert fit is not None
        assert fit.rmse < 1e-9
        assert fit.theta == pytest.approx(truth, rel=1e-6, abs=1e-6)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.integers(3, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_degenerate_histories_never_raise(self, name, level, other, n, data):
        fn = get_function(name)
        spike = np.full(n, level)
        spike[data.draw(st.integers(0, n - 1))] = other
        for y in (np.full(n, level), np.array([level, other]), spike):
            fit = fit_curve(fn, np.arange(1, len(y) + 1), y)
            if fit is not None:
                assert np.all(np.isfinite(fit.theta))
                assert in_bounds(fn, fit.theta)
                assert np.isfinite(fit.predict(25.0))


class TestParetoProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.integers(1, 10**6)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_frontier_members_mutually_non_dominated(self, metrics):
        members = [
            Individual(None, i, 0, fitness=f, flops=c)  # genome unused here
            for i, (f, c) in enumerate(metrics)
        ]
        frontier = pareto_frontier(members)
        assert frontier  # never empty for non-empty input
        for p in frontier:
            for q in frontier:
                if p is q:
                    continue
                assert not (
                    q.fitness >= p.fitness
                    and q.flops <= p.flops
                    and (q.fitness > p.fitness or q.flops < p.flops)
                )
        # every non-frontier member is dominated by someone on the frontier
        frontier_ids = {p.model_id for p in frontier}
        for m in members:
            if m.model_id in frontier_ids:
                continue
            assert any(
                p.fitness >= m.fitness
                and p.flops <= m.flops
                and (p.fitness > m.fitness or p.flops < m.flops)
                for p in frontier
            )


class TestSchedulerProperties:
    @given(
        st.lists(
            st.lists(
                st.lists(st.floats(0.1, 50.0), min_size=1, max_size=5),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_and_bounds(self, spec, n_gpus):
        generations = [[sum(durations) for durations in gen] for gen in spec]
        seconds, waits = [], []
        for gen in generations:
            waits += [len(seconds)] * len(gen)
            seconds += gen
        total = sum(seconds)
        placements, makespan, busy = fifo_schedule(seconds, n_gpus, waits)
        assert busy == pytest.approx(total)
        # makespan bounded below by critical path and above by serial time
        longest_per_gen = sum(max(gen) for gen in generations)
        assert makespan >= max(total / n_gpus, longest_per_gen) - 1e-6
        assert makespan <= total + 1e-6
        # placements never overlap on a GPU
        by_gpu = {}
        for gpu, start, finish in placements:
            by_gpu.setdefault(gpu, []).append((start, finish))
        for intervals in by_gpu.values():
            intervals.sort()
            for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
                assert s2 >= f1 - 1e-9


class TestNoiseProperties:
    @given(
        st.integers(1, 4),
        st.integers(4, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_normalization_invariants(self, n, size, seed):
        rng = derive_rng(seed, "noise-prop")
        counts = rng.poisson(3.0, size=(n, size, size)).astype(float)
        # guarantee per-image variance so std is finite
        counts[:, 0, 0] += 50.0
        normed = normalize_patterns(counts)
        assert normed.shape == counts.shape
        np.testing.assert_allclose(normed.mean(axis=(1, 2)), 0.0, atol=1e-8)
        np.testing.assert_allclose(normed.std(axis=(1, 2)), 1.0, atol=1e-6)
