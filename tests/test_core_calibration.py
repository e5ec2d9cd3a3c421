"""Tests for engine-behaviour measurement and regime calibration claims."""

import numpy as np
import pytest

from repro.core import PredictionEngine, measure_engine_behaviour
from repro.nas.genome import random_genome
from repro.nas.surrogate import REGIMES, sample_curve
from repro.utils.rng import derive_rng
from repro.xfel import BeamIntensity

from tests.conftest import make_concave_curve


class TestMeasureBehaviour:
    def test_clean_curves_all_terminate(self):
        curves = [make_concave_curve(25, rate=0.45, seed=i) for i in range(10)]
        behaviour = measure_engine_behaviour(PredictionEngine(), curves)
        assert behaviour.n_curves == 10
        assert behaviour.percent_terminated == 100.0
        assert behaviour.mean_epochs_saved > 10
        assert behaviour.mean_abs_error < 1.0

    def test_wild_curves_rarely_terminate(self):
        rng = np.random.default_rng(0)
        curves = [
            np.clip(50 + rng.uniform(-30, 30, 25), 0, 100) for _ in range(10)
        ]
        behaviour = measure_engine_behaviour(PredictionEngine(), curves)
        assert behaviour.percent_terminated < 50.0

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            measure_engine_behaviour(PredictionEngine(), [])

    def test_short_curve_rejected(self):
        with pytest.raises(ValueError, match="shorter than budget"):
            measure_engine_behaviour(
                PredictionEngine(), [make_concave_curve(10)], max_epochs=25
            )

    def test_statistics_consistent(self):
        curves = [make_concave_curve(25, rate=0.4, seed=i) for i in range(6)]
        behaviour = measure_engine_behaviour(PredictionEngine(), curves)
        assert behaviour.median_termination_epoch <= behaviour.mean_termination_epoch + 5


class TestRegimeCalibration:
    """The surrogate regimes reproduce the paper's Fig. 8 behaviour.

    These are the library's calibration claims, verified against the
    Table-1 engine over fresh curve banks (independent of any search).
    """

    @pytest.fixture(scope="class")
    def behaviours(self):
        engine = PredictionEngine()
        results = {}
        for intensity in BeamIntensity:
            curves = []
            for i in range(120):
                rng = derive_rng(90, "calib", intensity.label, i)
                curves.append(sample_curve(random_genome(rng), REGIMES[intensity], rng, 25))
            results[intensity.label] = measure_engine_behaviour(engine, curves)
        return results

    def test_low_terminates_late(self, behaviours):
        low = behaviours["low"]
        assert low.mean_termination_epoch > 17.0
        assert low.percent_terminated > 55.0

    def test_medium_terminates_mid(self, behaviours):
        medium = behaviours["medium"]
        assert medium.mean_termination_epoch < 13.5
        assert medium.percent_terminated > 65.0

    def test_high_terminates_early_but_less_often(self, behaviours):
        high = behaviours["high"]
        assert high.mean_termination_epoch < 12.5
        assert (
            high.percent_terminated
            < min(behaviours["low"].percent_terminated,
                  behaviours["medium"].percent_terminated)
        )

    def test_termination_epoch_ordering(self, behaviours):
        assert (
            behaviours["high"].mean_termination_epoch
            < behaviours["medium"].mean_termination_epoch
            < behaviours["low"].mean_termination_epoch
        )

    def test_prediction_errors_bounded(self, behaviours):
        # erratic (collapsing) curves can be terminated before their
        # decline, so predictions overestimate the true final value —
        # a genuine hazard of early termination the regimes preserve.
        # The error stays bounded well below the class-separation scale.
        for label, behaviour in behaviours.items():
            assert behaviour.mean_abs_error < 12.0, label
