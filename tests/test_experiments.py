"""Tests for experiment harness pieces that run quickly."""

import pytest

from repro.core import EngineBehaviour
from repro.experiments import (
    PAPER_ENGINE_CONFIG,
    PAPER_NAS_CONFIG,
    format_engine_ablation,
    format_function_ablation,
    paper_config,
    run_engine_ablation,
    run_fig2,
    run_function_ablation,
)
from repro.experiments.fig2_prediction import example_curve, format_fig2
from repro.experiments.reporting import ReportTable, shape_check
from repro.xfel import BeamIntensity


class TestPaperConfigs:
    def test_table1_constants(self):
        assert PAPER_ENGINE_CONFIG.function == "exp3"
        assert PAPER_ENGINE_CONFIG.c_min == 3
        assert PAPER_ENGINE_CONFIG.e_pred == 25
        assert PAPER_ENGINE_CONFIG.n_predictions == 3
        assert PAPER_ENGINE_CONFIG.tolerance == 0.5

    def test_table2_constants(self):
        assert PAPER_NAS_CONFIG.population_size == 10
        assert PAPER_NAS_CONFIG.nodes_per_phase == 4
        assert PAPER_NAS_CONFIG.offspring_per_generation == 10
        assert PAPER_NAS_CONFIG.generations == 10
        assert PAPER_NAS_CONFIG.max_epochs == 25
        assert PAPER_NAS_CONFIG.total_evaluations == 100

    def test_paper_config_builds_per_intensity(self):
        for intensity in BeamIntensity:
            config = paper_config(intensity)
            assert config.intensity is intensity
            assert config.nas == PAPER_NAS_CONFIG
            assert config.engine == PAPER_ENGINE_CONFIG


class TestFig2:
    def test_example_converges_early(self):
        result = run_fig2()
        assert result.termination_epoch is not None
        assert 5 <= result.termination_epoch <= 20
        # prediction close to the curve's true final value
        assert result.final_prediction == pytest.approx(
            result.true_final_fitness, abs=2.0
        )

    def test_predictions_start_at_c_min(self):
        result = run_fig2()
        first_epoch = result.predictions[0][0]
        assert first_epoch == 3

    def test_custom_curve(self):
        result = run_fig2(example_curve(seed=5))
        assert len(result.fitness_curve) >= 3

    def test_format_mentions_convergence(self):
        text = format_fig2(run_fig2())
        assert "converged at epoch" in text
        assert "Figure 2" in text


def _behaviour(error: float) -> EngineBehaviour:
    return EngineBehaviour(
        n_curves=3,
        percent_terminated=50.0,
        mean_termination_epoch=12.0,
        median_termination_epoch=12.0,
        mean_epochs_saved=6.0,
        mean_abs_error=error,
    )


class TestAblations:
    """Both engine ablations at smoke scale: one curve per regime."""

    def test_function_ablation_scores_every_requested_family(self):
        # exp3 is solved by variable projection, mmf by the trust-region fit
        scores = run_function_ablation(functions=["exp3", "mmf"], n_per_regime=1)
        assert list(scores) == ["exp3", "mmf"]
        for behaviour in scores.values():
            assert isinstance(behaviour, EngineBehaviour)
            assert behaviour.n_curves == 3

    def test_function_table_sorts_nan_errors_last(self):
        text = format_function_ablation(
            {"never": _behaviour(float("nan")), "worse": _behaviour(2.0), "best": _behaviour(1.0)}
        )
        rows = [line.split()[0] for line in text.splitlines()[3:]]
        assert rows == ["best", "worse", "never"]

    def test_engine_ablation_keeps_the_grid_order(self):
        points = run_engine_ablation(n_values=(3, 2), r_values=(0.5, 0.1), n_per_regime=1)
        grid = [(3, 0.5), (3, 0.1), (2, 0.5), (2, 0.1)]
        assert list(points) == grid
        assert all(isinstance(b, EngineBehaviour) for b in points.values())
        rows = [line.split()[:2] for line in format_engine_ablation(points).splitlines()[3:]]
        assert rows == [[str(n), f"{r:.2f}"] for n, r in grid]


class TestReporting:
    def test_table_alignment_and_values(self):
        table = ReportTable("metric", "paper", "measured")
        table.row("saved %", 13.3, 13.64)
        text = table.render("Demo")
        assert "Demo" in text
        assert "13.30" in text and "13.64" in text

    def test_row_arity_checked(self):
        table = ReportTable("a", "b")
        with pytest.raises(ValueError):
            table.row(1)

    def test_shape_check_markers(self):
        assert shape_check("x", True).startswith("[ok]")
        assert shape_check("x", False).startswith("[MISMATCH]")


class TestOverhead:
    def test_lap_variance_in_seconds_squared_reports_as_ms_squared(self, monkeypatch):
        from types import SimpleNamespace

        from repro.experiments import format_overhead, overhead

        def model(variance, interactions=3):
            result = SimpleNamespace(
                engine_overhead_seconds=0.003,
                engine_interactions=interactions,
                engine_overhead_mean=1e-3,
                engine_overhead_variance=variance,
            )
            return SimpleNamespace(result=result, epoch_seconds=[20.0])

        # a single interaction has no variance and stays out of the mean
        archive = [model(1e-7), model(3e-7), model(5.0, interactions=1)]

        class Orchestrator:
            def __init__(self, config):
                pass

            def run(self):
                return SimpleNamespace(search=SimpleNamespace(archive=archive))

        monkeypatch.setattr(overhead, "A4NNOrchestrator", Orchestrator)
        result = overhead.run_overhead()
        assert result.variance_ms2 == pytest.approx(0.2)  # mean 2e-7 s² = 0.2 ms²
        assert result.mean_ms == pytest.approx(1.0)
        row = next(line for line in format_overhead(result).splitlines() if "variance" in line)
        assert row.split() == ["variance", "ms²", "per", "epoch", "1.12", "0.20"]
