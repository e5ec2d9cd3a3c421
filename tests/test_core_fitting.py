"""Tests for least-squares curve fitting."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.fitting import FitError, fit_curve
from repro.core.parametric import get_function

from tests.conftest import make_concave_curve


class TestFitCurve:
    def test_recovers_clean_exp3_curve(self):
        fn = get_function("exp3")
        x = np.arange(1, 16, dtype=float)
        y = fn(x, 95.0, 1.6, 3.0)
        fit = fit_curve(fn, x, y)
        assert fit is not None
        assert fit.rmse < 0.05
        # extrapolation to epoch 25 must be close to the true value
        assert fit.predict(25.0) == pytest.approx(float(fn(25.0, 95.0, 1.6, 3.0)), abs=0.2)

    def test_noisy_curve_still_fits(self):
        fn = get_function("exp3")
        curve = make_concave_curve(15, noise=0.5, seed=3)
        fit = fit_curve(fn, np.arange(1, 16), curve)
        assert fit is not None
        assert fit.rmse < 2.0

    def test_underdetermined_returns_none(self):
        fn = get_function("exp3")
        assert fit_curve(fn, [1, 2], [50.0, 60.0]) is None

    def test_underdetermined_strict_raises(self):
        fn = get_function("exp3")
        with pytest.raises(FitError, match="need >= 3 points"):
            fit_curve(fn, [1, 2], [50.0, 60.0], strict=True)

    def test_non_finite_data_returns_none(self):
        fn = get_function("exp3")
        assert fit_curve(fn, [1, 2, 3, 4], [50.0, np.nan, 60.0, 65.0]) is None

    def test_mismatched_shapes_raise(self):
        fn = get_function("exp3")
        with pytest.raises(ValueError, match="equal-length"):
            fit_curve(fn, [1, 2, 3], [50.0, 60.0])

    def test_parameters_respect_bounds(self):
        fn = get_function("exp3")
        curve = make_concave_curve(20, noise=2.0, seed=5)
        fit = fit_curve(fn, np.arange(1, 21), curve)
        assert fit is not None
        theta = np.asarray(fit.theta)
        assert np.all(theta >= np.asarray(fn.lower) - 1e-9)
        assert np.all(theta <= np.asarray(fn.upper) + 1e-9)

    def test_predict_scalar_and_vector(self):
        fn = get_function("exp3")
        fit = fit_curve(fn, np.arange(1, 11), make_concave_curve(10))
        assert isinstance(fit.predict(25.0), float)
        vec = fit.predict(np.array([20.0, 25.0]))
        assert vec.shape == (2,)

    def test_flat_curve_fits_constant(self):
        fn = get_function("exp3")
        y = np.full(10, 50.0)
        fit = fit_curve(fn, np.arange(1, 11), y)
        assert fit is not None
        assert fit.predict(25.0) == pytest.approx(50.0, abs=1.0)

    def test_n_points_recorded(self):
        fn = get_function("exp3")
        fit = fit_curve(fn, np.arange(1, 8), make_concave_curve(7))
        assert fit.n_points == 7


def test_scipy_optimize_is_imported_by_the_first_trust_region_fit_and_not_before():
    src = str(Path(__file__).resolve().parents[1] / "src")
    curve = "range(1, 9), [50, 60, 66, 70, 72, 73, 74, 74.5]"
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import repro.workflow.orchestrator, repro.workflow.resume, repro.analysis; "
        "from repro.core.fitting import fit_curve; "
        "from repro.core.parametric import get_function; "
        f"assert fit_curve(get_function('exp3'), {curve}) is not None; "
        "assert 'scipy.optimize' not in sys.modules, 'a projected fit imported it'; "
        f"assert fit_curve(get_function('weibull'), {curve}) is not None; "
        "assert 'scipy.optimize' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)
