"""Tests for the prediction engine (paper §2.1, Table 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import STABILITY_METRICS, EngineConfig, PredictionEngine
from repro.core.plugin import LearningCurveModel, run_training_loop
from repro.utils.validation import ValidationError

from tests.conftest import make_concave_curve


class TestEngineConfig:
    def test_paper_defaults(self):
        config = EngineConfig()
        assert config.function == "exp3"
        assert config.c_min == 3
        assert config.e_pred == 25
        assert config.n_predictions == 3
        assert config.tolerance == 0.5

    def test_to_dict_round_trip_fields(self):
        d = EngineConfig().to_dict()
        assert d["function"] == "exp3"
        assert d["fitness_bounds"] == [0.0, 100.0]

    def test_c_min_below_param_count_rejected(self):
        with pytest.raises(ValidationError, match="underdetermined"):
            EngineConfig(function="weibull", c_min=3)  # 4 params

    def test_c_min_below_one_rejected(self):
        with pytest.raises(ValidationError, match="c_min must be >= 1"):
            EngineConfig(c_min=0)

    def test_invalid_e_pred_rejected(self):
        with pytest.raises(ValidationError):
            EngineConfig(e_pred=0)

    def test_unknown_function_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown parametric function 'cubic'"):
            EngineConfig(function="cubic")


class TestPredictor:
    def test_no_prediction_before_c_min(self):
        engine = PredictionEngine()
        assert engine.predictor(1, [50.0]) is None
        assert engine.predictor(2, [50.0, 60.0]) is None

    def test_prediction_from_c_min_onwards(self):
        engine = PredictionEngine()
        curve = make_concave_curve(10)
        prediction = engine.predictor(3, list(curve[:3]))
        assert prediction is not None
        assert np.isfinite(prediction)

    def test_prediction_converges_to_asymptote(self):
        engine = PredictionEngine()
        curve = make_concave_curve(20, asymptote=95.0)
        prediction = engine.predictor(20, list(curve))
        # F(25) for this curve is ~95.0
        assert prediction == pytest.approx(95.0, abs=0.5)

    def test_epoch_history_mismatch_raises(self):
        engine = PredictionEngine()
        with pytest.raises(ValueError, match="disagrees"):
            engine.predictor(5, [50.0, 60.0, 65.0])

    def test_describe_includes_formula(self):
        snapshot = PredictionEngine().describe()
        assert snapshot["formula"] == "a - b**(c - x)"
        assert snapshot["e_pred"] == 25


class TestAlternativeFunctions:
    @pytest.mark.parametrize("name,c_min", [("pow3", 3), ("ilog2", 2), ("janoschek", 4)])
    def test_engine_works_with_other_families(self, name, c_min):
        engine = PredictionEngine(EngineConfig(function=name, c_min=c_min))
        curve = make_concave_curve(25, rate=0.4)
        result = run_training_loop(LearningCurveModel(curve), engine, 25)
        # may or may not converge, but must never produce invalid state
        assert len(result.fitness_history) <= 25
        for p in result.prediction_history:
            assert np.isfinite(p)


def reference_converged(predictions, n_predictions, tolerance, fitness_bounds, stability_metric):
    """The convergence rule over a NumPy window: the reference ``converged`` must equal."""
    window = np.asarray(predictions[-n_predictions:], dtype=float)
    if len(window) < n_predictions:
        return False

    lo, hi = fitness_bounds
    invalid = ~np.isfinite(window) | (window < lo) | (window > hi)
    if np.any(invalid):
        return False

    if stability_metric == "range":
        spread = float(window.max() - window.min())
    elif stability_metric == "variance":
        spread = float(np.var(window))
    else:
        spread = float(np.std(window))
    return spread <= tolerance


EDGE_VALUES = (0.0, 100.0, -0.0, 100.0000001, -1e-9, math.nan, math.inf, -math.inf)


@st.composite
def rule_cases(draw):
    """A prediction history, ``N``, ``r`` (often an exact spread tie), a metric and bounds."""
    values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-5.0, 105.0))
    history = draw(st.lists(values, max_size=8))
    n = draw(st.integers(2, 5))
    metric = draw(st.sampled_from(STABILITY_METRICS))
    # unbounded, only finiteness makes a prediction invalid
    bounds = draw(st.sampled_from([(0.0, 100.0), (-math.inf, math.inf)]))
    window = np.asarray(history[-n:], dtype=float)
    with np.errstate(invalid="ignore"):
        spread = float(
            {"range": np.ptp, "variance": np.var, "std": np.std}[metric](window)
            if window.size else math.nan
        )
    ties = [
        r for r in (spread, math.nextafter(spread, math.inf), math.nextafter(spread, 0.0))
        if math.isfinite(r) and r > 0
    ]
    # r = inf accepts any finite spread, so only validity can refuse
    tolerance = draw(st.one_of(st.sampled_from(ties + [math.inf]), st.floats(1e-9, 200.0)))
    return history, n, tolerance, metric, bounds


class TestConvergedIsTheReferenceRule:
    @given(rule_cases())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_equal_to_the_reference(self, case):
        history, n, tolerance, metric, bounds = case
        config = EngineConfig(
            n_predictions=n, tolerance=tolerance, stability_metric=metric, fitness_bounds=bounds
        )
        assert PredictionEngine(config).converged(history) == reference_converged(
            history, n, tolerance, bounds, metric
        )
