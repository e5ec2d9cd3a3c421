"""Tests for the Analyzer subpackage."""

import numpy as np
import pytest

from repro.analysis import (
    CommonsQuery,
    ParetoPoint,
    ascii_curve,
    bit_frequency_profile,
    describe_curve,
    flops_accuracy_correlation,
    frontier_table,
    hypervolume_2d,
    pareto_frontier,
    prediction_error_summary,
    records_to_table,
    render_network,
    render_phase,
    sparkline,
    structural_similarity,
    termination_histogram,
)
from repro.lineage.records import ModelRecord
from repro.nas import DecoderConfig, Individual, PhaseGenome, decode_genome, random_genome

from tests.conftest import make_concave_curve


def make_record(model_id, fitness, flops, rng, **kwargs):
    defaults = dict(
        model_id=model_id,
        generation=0,
        genome=random_genome(rng).to_dict(),
        fitness=fitness,
        flops=flops,
        epochs_trained=kwargs.pop("epochs_trained", 25),
        max_epochs=25,
    )
    defaults.update(kwargs)
    return ModelRecord(**defaults)


class TestParetoFrontier:
    def test_dominated_points_excluded(self, rng):
        members = [
            Individual(random_genome(rng), 0, 0, fitness=90.0, flops=100),
            Individual(random_genome(rng), 1, 0, fitness=95.0, flops=200),
            Individual(random_genome(rng), 2, 0, fitness=85.0, flops=150),  # dominated
        ]
        frontier = pareto_frontier(members)
        assert [p.model_id for p in frontier] == [0, 1]

    def test_sorted_by_flops(self, rng):
        members = [
            Individual(random_genome(rng), i, 0, fitness=80.0 + i, flops=1000 - 100 * i)
            for i in range(5)
        ]
        frontier = pareto_frontier(members)
        flops = [p.flops for p in frontier]
        assert flops == sorted(flops)

    def test_empty_input(self):
        assert pareto_frontier([]) == []

    def test_unevaluated_rejected(self, rng):
        with pytest.raises(ValueError):
            pareto_frontier([Individual(random_genome(rng), 0, 0)])

    def test_works_on_model_records(self, rng):
        records = [make_record(i, 90.0 + i, 100 * (i + 1), rng) for i in range(3)]
        frontier = pareto_frontier(records)
        assert frontier[0].model_id == 0

    def test_frontier_table_renders(self, rng):
        members = [Individual(random_genome(rng), 0, 0, fitness=90.0, flops=10**6)]
        text = frontier_table(pareto_frontier(members))
        assert "90.00" in text and "1.00" in text


class TestHypervolume:
    def test_empty_zero(self):
        assert hypervolume_2d([]) == 0.0

    def test_single_point_zero_without_ref(self):
        points = [ParetoPoint(0, 90.0, 100.0)]
        assert hypervolume_2d(points) == 0.0  # ref_flops defaults to max

    def test_monotone_in_accuracy(self):
        base = [ParetoPoint(0, 80.0, 100.0), ParetoPoint(1, 90.0, 200.0)]
        better = [ParetoPoint(0, 85.0, 100.0), ParetoPoint(1, 95.0, 200.0)]
        assert hypervolume_2d(better, ref_flops=300.0) > hypervolume_2d(base, ref_flops=300.0)

    def test_manual_value(self):
        points = [ParetoPoint(0, 10.0, 1.0)]
        # width (5-1) * height (10-0) = 40
        assert hypervolume_2d(points, ref_fitness=0.0, ref_flops=5.0) == pytest.approx(40.0)


class TestCurveShapes:
    def test_clean_concave_curve(self):
        shape = describe_curve(make_concave_curve(20))
        assert shape.monotonicity == 1.0
        assert shape.concave_fraction > 0.9
        assert shape.total_gain > 20
        assert shape.plateau_epoch < 20

    def test_noisy_curve_less_monotone(self):
        clean = describe_curve(make_concave_curve(20))
        noisy = describe_curve(make_concave_curve(20, noise=3.0, seed=1))
        assert noisy.monotonicity < clean.monotonicity
        assert noisy.noise_rms > clean.noise_rms

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            describe_curve([50.0])


class TestTerminationHistogram:
    def test_counts_and_percent(self, rng):
        records = [
            make_record(0, 90.0, 100, rng, terminated_early=True, epochs_trained=10),
            make_record(1, 91.0, 100, rng, terminated_early=True, epochs_trained=10),
            make_record(2, 92.0, 100, rng, terminated_early=False, epochs_trained=25),
        ]
        summary = termination_histogram(records, max_epochs=25)
        assert summary.histogram[9] == 2
        assert summary.histogram.sum() == 2
        assert summary.percent_terminated == pytest.approx(100 * 2 / 3)
        assert summary.mean_termination_epoch == 10.0

    def test_no_terminations_nan_mean(self, rng):
        records = [make_record(0, 90.0, 100, rng, terminated_early=False)]
        summary = termination_histogram(records, max_epochs=25)
        assert np.isnan(summary.mean_termination_epoch)
        assert summary.percent_terminated == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            termination_histogram([], max_epochs=25)

    def test_out_of_range_epoch_rejected(self, rng):
        records = [make_record(0, 9.0, 1, rng, terminated_early=True, epochs_trained=30)]
        with pytest.raises(ValueError):
            termination_histogram(records, max_epochs=25)


class TestQueries:
    def _records(self, rng):
        return [
            make_record(
                i,
                85.0 + i,
                100 * (i + 1),
                rng,
                generation=i // 2,
                terminated_early=(i % 2 == 0),
                epochs_trained=10 if i % 2 == 0 else 25,
                fitness_history=list(make_concave_curve(10)),
            )
            for i in range(6)
        ]

    def test_filters_compose(self, rng):
        query = CommonsQuery(self._records(rng))
        filtered = query.terminated_early().fitness_at_least(87.0)
        assert [r.model_id for r in filtered.records] == [2, 4]

    def test_in_generation(self, rng):
        query = CommonsQuery(self._records(rng))
        assert len(query.in_generation(1)) == 2

    def test_top_by_fitness(self, rng):
        query = CommonsQuery(self._records(rng))
        top = query.top_by_fitness(2)
        assert [r.model_id for r in top] == [5, 4]

    def test_aggregates(self, rng):
        query = CommonsQuery(self._records(rng))
        assert query.mean_fitness() == pytest.approx(87.5)
        assert query.mean_epochs_trained() == pytest.approx((10 * 3 + 25 * 3) / 6)
        assert query.total_epochs_saved() == 3 * 15

    def test_table_rows(self, rng):
        rows = records_to_table(self._records(rng))
        assert len(rows) == 6
        assert rows[0]["mean_accuracy"] is not None
        assert rows[0]["gain_per_epoch"] > 0

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            CommonsQuery([]).mean_fitness()


class TestStats:
    def test_flops_accuracy_correlation_positive(self, rng):
        records = [make_record(i, 80.0 + i, 100 * (i + 1), rng) for i in range(10)]
        result = flops_accuracy_correlation(records)
        assert result.rho == pytest.approx(1.0)
        assert result.significant

    def test_correlation_needs_three(self, rng):
        with pytest.raises(ValueError):
            flops_accuracy_correlation([make_record(0, 80.0, 100, rng)])

    def test_correlation_rejects_a_constant_column(self, rng):
        with pytest.raises(ValueError, match="flops is constant"):
            flops_accuracy_correlation([make_record(i, 80.0 + i, 100, rng) for i in range(4)])
        with pytest.raises(ValueError, match="fitness is constant"):
            flops_accuracy_correlation([make_record(i, 80.0, 100 * (i + 1), rng) for i in range(4)])

    def test_structural_similarity_bounds(self, rng):
        a = make_record(0, 80.0, 100, rng)
        assert structural_similarity(a, a) == 1.0
        b = make_record(1, 81.0, 100, rng)
        assert 0.0 <= structural_similarity(a, b) <= 1.0

    def test_bit_frequency_profile(self, rng):
        records = [make_record(i, 80.0, 100, rng) for i in range(5)]
        profile = bit_frequency_profile(records)
        assert profile.shape == (21,)
        assert np.all((profile >= 0) & (profile <= 1))

    def test_prediction_error_summary(self, rng):
        records = [
            make_record(
                0, 95.0, 100, rng, terminated_early=True, measured_fitness=94.0
            ),
            make_record(
                1, 90.0, 100, rng, terminated_early=True, measured_fitness=92.0
            ),
        ]
        summary = prediction_error_summary(records)
        assert summary.n == 2
        assert summary.mean_abs_error == pytest.approx(1.5)
        assert summary.max_abs_error == pytest.approx(2.0)


class TestViz:
    def test_sparkline_length_and_charset(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert sparkline([5, 5, 5]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_ascii_curve_contains_axis(self):
        plot = ascii_curve(make_concave_curve(20), height=5)
        assert "#" in plot and "epochs" in plot

    def test_render_phase_shows_routing(self):
        phase = PhaseGenome(3, (1, 0, 1, 1))
        text = render_phase(phase)
        assert "node1 <- node0" in text
        assert "skip" in text

    def test_render_network_expands_phases(self, rng):
        net = decode_genome(
            random_genome(rng), DecoderConfig((1, 8, 8), 2, (2, 3, 4)), rng=rng
        )
        text = render_network(net)
        assert "PhaseBlock" in text and "Dense" in text


class TestCompareRuns:
    def _runs(self, rng):
        a4nn = [
            make_record(
                i, 90.0 + i % 5, 100 * (1 + i % 4), rng,
                generation=i // 3, epochs_trained=12, terminated_early=True,
            )
            for i in range(9)
        ]
        baseline = [
            make_record(
                100 + i, 89.0 + i % 5, 100 * (1 + i % 4), rng,
                generation=i // 3, epochs_trained=25,
            )
            for i in range(9)
        ]
        return a4nn, baseline

    def test_epoch_savings_and_best_delta(self, rng):
        from repro.analysis import compare_runs

        a4nn, baseline = self._runs(rng)
        comparison = compare_runs(a4nn, baseline)
        assert comparison.epochs_trained == (9 * 12, 9 * 25)
        assert comparison.epochs_saved_percent == pytest.approx(100 * 13 / 25)
        assert comparison.best_fitness_delta == pytest.approx(1.0)

    def test_generation_means_shape(self, rng):
        from repro.analysis import compare_runs

        a4nn, baseline = self._runs(rng)
        comparison = compare_runs(a4nn, baseline)
        means_a, means_b = comparison.mean_generation_fitness
        assert len(means_a) == 3 and len(means_b) == 3
        assert np.all(means_a >= means_b)

    def test_summary_lines_render(self, rng):
        from repro.analysis import compare_runs

        a4nn, baseline = self._runs(rng)
        lines = compare_runs(a4nn, baseline).summary_lines()
        assert any("epoch savings" in line for line in lines)

    def test_empty_run_rejected(self, rng):
        from repro.analysis import compare_runs

        with pytest.raises(ValueError):
            compare_runs([], [make_record(0, 90.0, 100, rng)])

    def test_hypervolume_ratio_favors_better_frontier(self, rng):
        from repro.analysis import compare_runs

        strong = [make_record(i, 95.0 + i, 100 * (i + 1), rng) for i in range(4)]
        weak = [make_record(10 + i, 85.0 + i, 100 * (i + 1), rng) for i in range(4)]
        comparison = compare_runs(strong, weak)
        assert comparison.hypervolume_ratio > 1.0
