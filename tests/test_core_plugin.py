"""Tests for the Algorithm-1 training-loop plug-in."""

import numpy as np
import pytest

from repro.core.engine import PredictionEngine
from repro.core.plugin import LearningCurveModel, TrainableModel, run_training_loop

from tests.conftest import make_concave_curve


class CountingModel:
    """Minimal TrainableModel that records call ordering."""

    def __init__(self, curve):
        self.curve = list(curve)
        self.trained = 0
        self.calls = []

    def train(self):
        self.trained += 1
        self.calls.append("train")

    def validate(self):
        self.calls.append("validate")
        return self.curve[self.trained - 1]


class TestStandaloneLoop:
    def test_trains_full_budget_without_engine(self):
        model = CountingModel(make_concave_curve(25))
        result = run_training_loop(model, None, 25)
        assert result.epochs_trained == 25
        assert not result.terminated_early
        assert result.engine_interactions == 0
        # Algorithm 1 line 20: returns last measured fitness
        assert result.fitness == pytest.approx(model.curve[-1])

    def test_train_precedes_validate_each_epoch(self):
        model = CountingModel(make_concave_curve(5))
        run_training_loop(model, None, 5)
        assert model.calls == ["train", "validate"] * 5

    def test_histories_complete(self):
        curve = make_concave_curve(10)
        result = run_training_loop(CountingModel(curve), None, 10)
        np.testing.assert_allclose(result.fitness_history, curve)
        assert result.prediction_history == ()

    def test_invalid_budget_rejected(self):
        with pytest.raises(Exception):
            run_training_loop(CountingModel([50.0]), None, 0)


class TestEngineLoop:
    def test_early_termination_on_clean_curve(self):
        curve = make_concave_curve(25, rate=0.45)
        result = run_training_loop(LearningCurveModel(curve), PredictionEngine(), 25)
        assert result.terminated_early
        assert result.epochs_trained < 25
        assert result.epochs_saved == 25 - result.epochs_trained
        # Algorithm 1 line 18: fitness is the last prediction
        assert result.fitness == result.prediction_history[-1]
        assert result.measured_fitness == result.fitness_history[-1]

    def test_no_termination_on_erratic_curve(self):
        rng = np.random.default_rng(0)
        curve = np.clip(50 + rng.uniform(-30, 30, 25), 0, 100)
        result = run_training_loop(LearningCurveModel(curve), PredictionEngine(), 25)
        assert not result.terminated_early
        assert result.epochs_trained == 25
        assert result.fitness == pytest.approx(curve[-1])

    def test_overhead_accounting(self):
        curve = make_concave_curve(25, rate=0.45)
        result = run_training_loop(LearningCurveModel(curve), PredictionEngine(), 25)
        assert result.engine_interactions == result.epochs_trained
        assert result.engine_overhead_seconds > 0
        assert result.engine_overhead_mean > 0
        assert result.engine_overhead_seconds == pytest.approx(
            result.engine_overhead_mean * result.engine_interactions, rel=1e-6
        )

    def test_converged_fitness_is_near_the_asymptote(self):
        curve = make_concave_curve(25, rate=0.4)
        result = run_training_loop(LearningCurveModel(curve), PredictionEngine(), 25)
        assert result.terminated_early
        assert result.fitness == pytest.approx(95.0, abs=1.0)

    def test_one_prediction_per_epoch_from_c_min(self):
        model = CountingModel(make_concave_curve(6))
        result = run_training_loop(model, PredictionEngine(), 6)
        # predictions start at epoch c_min = 3; no epoch is trained after a stop
        assert len(result.prediction_history) == result.epochs_trained - 2
        assert model.trained == result.epochs_trained

    def test_epoch_callback_sees_predictions(self):
        seen = []
        curve = make_concave_curve(25, rate=0.45)
        run_training_loop(
            LearningCurveModel(curve),
            PredictionEngine(),
            25,
            epoch_callback=lambda e, f, p: seen.append((e, f, p)),
        )
        assert seen[0][0] == 1 and seen[0][2] is None  # before c_min: no prediction
        assert seen[2][2] is not None                  # epoch 3 = c_min: prediction
        epochs = [e for e, _, _ in seen]
        assert epochs == list(range(1, len(seen) + 1))


class TestProtocol:
    def test_learning_curve_model_satisfies_protocol(self):
        assert isinstance(LearningCurveModel(np.array([50.0])), TrainableModel)

    def test_counting_model_satisfies_protocol(self):
        assert isinstance(CountingModel([50.0]), TrainableModel)
