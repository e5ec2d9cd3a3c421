"""Tests for the Analyzer subpackage."""

import numpy as np
import pytest

from repro.analysis import (
    ParetoPoint,
    anytime_hypervolume,
    ascii_curve,
    bit_frequency_profile,
    describe_curve,
    flops_accuracy_correlation,
    hypervolume_2d,
    mean_fitness,
    pareto_frontier,
    prediction_error_summary,
    render_network,
    render_phase,
    sparkline,
    termination_histogram,
    top_by_fitness,
    true_curves,
)
from repro.core.engine import EngineConfig
from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord, RunRecord
from repro.nas import DecoderConfig, Individual, PhaseGenome, decode_genome, random_genome
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.workflow import A4NNOrchestrator, WorkflowConfig

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

    def test_nothing_counts_past_the_reference_flops(self):
        past = [ParetoPoint(0, 90.0, 5.0), ParetoPoint(1, 95.0, 10.0)]
        assert hypervolume_2d(past, ref_fitness=50.0, ref_flops=3.0) == 0.0
        # only the first point's width up to the reference: (3 - 2) * (90 - 50)
        straddling = [ParetoPoint(0, 90.0, 2.0), ParetoPoint(1, 95.0, 10.0)]
        assert hypervolume_2d(straddling, ref_fitness=50.0, ref_flops=3.0) == pytest.approx(40.0)


class TestAnytimeHypervolume:
    REF = (50.0, 1000.0)

    def records(self, rng):
        # (fitness, flops, epochs trained, cache hit): a dominated commit,
        # a cache hit of model 1 and a commit that moves the front late
        rows = [
            (70.0, 400.0, 25, False),
            (80.0, 600.0, 12, False),
            (60.0, 500.0, 7, False),
            (80.0, 600.0, 12, True),
            (75.0, 200.0, 25, False),
            (90.0, 900.0, 3, False),
        ]
        return [
            make_record(i, fit, flops, rng, epochs_trained=epochs, cache_hit=hit)
            for i, (fit, flops, epochs, hit) in enumerate(rows)
        ]

    def test_curve_never_decreases_and_counts_only_executed_epochs(self, rng):
        curve = anytime_hypervolume(self.records(rng), ref=self.REF)
        epochs, volumes = zip(*curve)
        assert epochs == (25, 37, 44, 44, 69, 72)  # the cache hit adds none
        assert all(a <= b for a, b in zip(volumes, volumes[1:]))
        assert volumes[2] == volumes[1] and volumes[3] == volumes[2]
        assert volumes[0] == (1000.0 - 400.0) * (70.0 - 50.0)

    def test_ends_at_the_hypervolume_of_the_final_front(self, rng):
        records = self.records(rng)
        final = hypervolume_2d(pareto_frontier(records), ref_fitness=50.0, ref_flops=1000.0)
        assert anytime_hypervolume(records, ref=self.REF)[-1][1] == pytest.approx(final, rel=1e-12)

    def test_does_not_depend_on_the_order_records_come_in(self, rng):
        records = self.records(rng)
        curve = anytime_hypervolume(records, ref=self.REF)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(records))
            assert anytime_hypervolume([records[i] for i in order], ref=self.REF) == curve

    def test_true_fitness_replaces_the_recorded_one(self, rng):
        records = self.records(rng)
        truth = {r.model_id: r.fitness for r in records} | {5: 50.0}  # model 5 was over-predicted
        curve = anytime_hypervolume(records, ref=self.REF, fitness=truth)
        assert curve[-1][1] == curve[-2][1] < anytime_hypervolume(records, ref=self.REF)[-1][1]
        assert anytime_hypervolume([], ref=self.REF) == []
        with pytest.raises(ValueError, match="lacks fitness"):
            anytime_hypervolume([make_record(0, None, 10.0, rng)], ref=self.REF)


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


def published_surrogate_run(tmp_path, evolution="barrier", **settings):
    """A small seeded surrogate run, published and loaded back."""
    config = WorkflowConfig(
        nas=NSGANetConfig(
            population_size=6,
            offspring_per_generation=6,
            generations=4,
            max_epochs=8,
            nodes_per_phase=2,
            evolution=evolution,
        ),
        engine=EngineConfig(e_pred=8),
        n_gpus=(1,),
        seed=1,
        **settings,
    )
    commons = DataCommons(tmp_path)
    run_id = A4NNOrchestrator(config, commons=commons).run().run_id
    return commons.load_models(run_id), commons.load_run(run_id)


def ranking(probe_epochs=1):
    return SurrogateConfig(min_records=6, explore_every=4, probe_epochs=probe_epochs)


class TestTrueCurves:
    @pytest.mark.parametrize(
        "evolution, settings, feature",
        [
            ("barrier", {}, lambda r: r.cache_hit),
            (
                "barrier",
                {
                    "faults": FaultPolicy(max_retries=1),
                    "fault_injection": FaultInjectionConfig(rate=0.3, modes=("crash", "nan")),
                },
                lambda r: r.fault_events and not r.quarantined,
            ),
            ("barrier", {"surrogate": ranking(probe_epochs=0)}, lambda r: r.budget_assigned == 0),
            ("steady", {"surrogate": ranking()}, lambda r: r.terminated_early),
        ],
        ids=["cache-hits", "retried", "zero-budget", "steady-ranked"],
    )
    def test_every_recorded_history_is_a_prefix(self, tmp_path, evolution, settings, feature):
        records, run = published_surrogate_run(tmp_path, evolution, **settings)
        assert any(feature(r) for r in records)
        curves = true_curves(records, run)
        assert sorted(curves) == sorted(r.model_id for r in records if not r.quarantined)
        for r in records:
            if r.quarantined:
                continue
            curve = curves[r.model_id]
            assert len(curve) == r.training_parameters["max_epochs"] == 8
            assert list(curve[: len(r.fitness_history)]) == r.fitness_history

    def test_refuses_a_real_run_and_a_run_without_config(self):
        real = WorkflowConfig(mode="real").to_dict()
        with pytest.raises(ValueError, match="real networks"):
            true_curves([], RunRecord("r", real))
        with pytest.raises(ValueError, match="workflow_config must be a JSON object"):
            true_curves([], RunRecord("r", None))


class TestQueries:
    def _records(self, rng):
        return [make_record(i, 85.0 + i, 100 * (i + 1), rng) for i in range(6)]

    def test_top_by_fitness(self, rng):
        top = top_by_fitness(self._records(rng), 2)
        assert [r.model_id for r in top] == [5, 4]

    def test_aggregates(self, rng):
        assert mean_fitness(self._records(rng)) == pytest.approx(87.5)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            mean_fitness([])


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
        assert comparison.best_fitness == (94.0, 93.0)

    def test_empty_run_rejected(self, rng):
        from repro.analysis import compare_runs

        with pytest.raises(ValueError):
            compare_runs([], [make_record(0, 90.0, 100, rng)])
