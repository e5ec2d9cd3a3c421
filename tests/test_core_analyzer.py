"""Tests for the convergence rule, ``PredictionEngine.converged`` (paper §2.1.2)."""

import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.utils.validation import ValidationError


def analyzer(**settings):
    """The engine's convergence rule under ``settings``."""
    return PredictionEngine(EngineConfig(**settings)).converged


class TestConstruction:
    def test_paper_defaults(self):
        config = EngineConfig()
        assert config.n_predictions == 3
        assert config.tolerance == 0.5
        assert config.fitness_bounds == (0.0, 100.0)

    def test_rejects_window_below_two(self):
        with pytest.raises(ValidationError, match="n_predictions"):
            EngineConfig(n_predictions=1)

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValidationError, match="stability_metric"):
            EngineConfig(stability_metric="median")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError, match="fitness_bounds"):
            EngineConfig(fitness_bounds=(100.0, 0.0))

    def test_rejects_non_positive_tolerance(self):
        with pytest.raises(ValidationError, match="tolerance"):
            EngineConfig(tolerance=0.0)


class TestConvergenceRule:
    def test_too_few_predictions_not_converged(self):
        assert not analyzer()([95.0, 95.1])

    def test_stable_window_converges(self):
        assert analyzer()([80.0, 90.0, 95.0, 95.2, 95.4])

    def test_unstable_window_does_not_converge(self):
        converged = analyzer()
        assert not converged([95.0, 95.2, 96.0])  # range 1.0
        assert converged([95.0, 95.2, 95.5])

    def test_only_trailing_window_matters(self):
        # wild early history, stable tail
        assert analyzer()([10.0, 150.0, -3.0, 95.0, 95.1, 95.2])

    def test_out_of_bounds_prediction_blocks_convergence(self):
        converged = analyzer()
        for bad in (101.0, -0.5, float("nan"), float("inf"), float("-inf")):
            assert not converged([95.0, 95.1, bad])

    def test_boundary_values_are_valid(self):
        converged = analyzer()
        assert converged([0.0, 0.0, 0.0])
        assert converged([100.0, 100.0, 100.0])

    def test_spread_exactly_tolerance_converges(self):
        assert analyzer(tolerance=0.5)([95.0, 95.25, 95.5])


class TestStabilityMetrics:
    def test_variance_metric(self):
        # range 0.4 but variance ~0.027 -> converged under variance
        assert analyzer(stability_metric="variance", tolerance=0.05)([95.0, 95.2, 95.4])

    def test_std_metric(self):
        converged = analyzer(stability_metric="std", tolerance=0.2)
        assert converged([95.0, 95.2, 95.4])
        assert not converged([94.0, 95.2, 96.4])

    def test_longer_window(self):
        converged = analyzer(n_predictions=5)
        preds = [95.0, 95.1, 95.2, 95.3, 95.4]
        assert converged(preds)
        assert not converged([90.0] + preds[1:])


class TestDescribe:
    def test_snapshot_fields(self):
        snap = PredictionEngine().describe()
        assert snap["n_predictions"] == 3
        assert snap["tolerance"] == 0.5
        assert snap["fitness_bounds"] == [0.0, 100.0]
        assert snap["stability_metric"] == "range"
