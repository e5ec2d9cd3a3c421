"""Tests for least-squares curve fitting."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import FitError, RidgeFit, fit_curve, ridge_lstsq
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


def reference_ridge(features, targets, ridge) -> RidgeFit | None:
    """``ridge_lstsq`` as it converted its arrays one element at a time."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.shape[0] == 0 or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return None
    gram = x.T @ x + ridge * np.eye(x.shape[1])
    try:
        theta = np.linalg.solve(gram, x.T @ y)
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(gram_inv))):
        return None
    residual = x @ theta - y
    return RidgeFit(
        theta=tuple(float(t) for t in theta),
        rmse=float(np.sqrt(np.mean(residual**2))),
        n_points=int(x.shape[0]),
        gram_inv=tuple(tuple(float(v) for v in row) for row in gram_inv),
    )


# -0.0, zeros, the tiniest subnormal and huge entries beside ordinary ones
_ridge_entries = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, -1e-300, 1e150, -1e154, 1.0)),
    st.floats(-1e3, 1e3),
)


@st.composite
def ridge_problems(draw):
    rows, width = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    features = draw(st.lists(st.lists(_ridge_entries, min_size=width, max_size=width), min_size=rows, max_size=rows))
    targets = draw(st.lists(_ridge_entries, min_size=rows, max_size=rows))
    ridge = draw(st.sampled_from((0.0, 1e-300, 1e-3, 1.0, 1e300)))
    return np.asarray(features, dtype=float).reshape(rows, width), targets, ridge


class TestRidgeLstsq:
    @given(ridge_problems())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_the_fit_is_the_element_by_element_conversion(self, problem):
        features, targets, ridge = problem
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow to None
            fit = ridge_lstsq(features, targets, ridge=ridge)
            reference = reference_ridge(features, targets, ridge)
        if reference is None:
            assert fit is None
            return
        # repr tells -0.0 from 0.0 and every bit of a float; the types are plain
        assert repr(fit) == repr(reference)
        values = (*fit.theta, *(v for row in fit.gram_inv for v in row))
        assert {type(fit.theta), type(fit.gram_inv), *map(type, fit.gram_inv)} == {tuple}
        assert {type(v) for v in values} == {float}

    def test_a_negative_zero_coefficient_stays_negative(self):
        features, targets = [[-1.0, 1.0], [-1.0, 2.0]], [0.0, -0.0]
        fit = ridge_lstsq(features, targets, ridge=1e-3)
        assert repr(fit.theta) == "(-0.0, 0.0)"
        assert repr(fit) == repr(reference_ridge(features, targets, 1e-3))


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
