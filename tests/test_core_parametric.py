"""Tests for the parametric learning-curve function library."""

import numpy as np
import pytest

from repro.core.parametric import FUNCTION_REGISTRY, exp3, get_function


class TestRegistry:
    def test_paper_function_registered(self):
        fn = get_function("exp3")
        assert fn.formula == "a - b**(c - x)"
        assert fn.n_params == 3

    def test_all_expected_families_present(self):
        expected = {"exp3", "pow3", "log2", "vapor_pressure", "mmf", "janoschek", "weibull", "ilog2"}
        assert set(FUNCTION_REGISTRY) == expected
        assert all(FUNCTION_REGISTRY[name].name == name for name in expected)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="exp3"):
            get_function("nope")


class TestExp3:
    def test_monotone_increasing_for_b_above_one(self):
        x = np.arange(1, 26, dtype=float)
        y = exp3(x, 95.0, 1.5, 2.0)
        assert np.all(np.diff(y) > 0)

    def test_approaches_asymptote(self):
        assert exp3(1000.0, 95.0, 1.5, 2.0) == pytest.approx(95.0, abs=1e-6)

    def test_no_overflow_on_extreme_params(self):
        y = exp3(np.array([1.0, 25.0]), 95.0, 99.0, 100.0)
        assert np.all(np.isfinite(y))

    def test_wrong_arity_raises(self):
        with pytest.raises(TypeError, match="3 parameters"):
            exp3(1.0, 95.0, 1.5)


class TestAllFamilies:
    @pytest.mark.parametrize("name", sorted(FUNCTION_REGISTRY))
    def test_finite_on_typical_domain(self, name):
        fn = FUNCTION_REGISTRY[name]
        x = np.arange(1, 26, dtype=float)
        y_obs = 90.0 - 35.0 * np.exp(-0.3 * x)
        theta = fn.guess(x, y_obs)
        assert len(theta) == fn.n_params
        y = fn(x, *theta)
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("name", sorted(FUNCTION_REGISTRY))
    def test_guess_within_bounds(self, name):
        fn = FUNCTION_REGISTRY[name]
        x = np.arange(1, 6, dtype=float)
        y = np.array([50.0, 60.0, 66.0, 70.0, 72.0])
        theta = np.asarray(fn.guess(x, y))
        assert np.all(theta >= np.asarray(fn.lower))
        assert np.all(theta <= np.asarray(fn.upper))

    @pytest.mark.parametrize("name", sorted(FUNCTION_REGISTRY))
    def test_guess_handles_short_history(self, name):
        fn = FUNCTION_REGISTRY[name]
        theta = fn.guess([1.0], [52.0])
        assert len(theta) == fn.n_params
        assert np.all(np.isfinite(theta))
