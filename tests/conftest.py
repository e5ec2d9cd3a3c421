"""Shared fixtures for the test suite."""

import logging
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import repro  # noqa: F401 -- probe for an installed package (pip install -e .)
except ModuleNotFoundError:  # fall back to the in-repo source tree
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.xfel import BeamIntensity, DatasetConfig, generate_dataset

logging.disable(logging.INFO)

#: seconds one test may run before it fails by name
TEST_BOUND_S = 60


@pytest.fixture(autouse=True)
def _test_time_bound(request):
    """Fail a test still running after ``TEST_BOUND_S`` by name.

    A real-time timer raises pytest's ``Failed`` in the main thread, so
    the run goes on and the summary names the test.  ``Failed`` is a
    ``BaseException``, so Hypothesis does not shrink on it: it replays
    the example once and reports a ``FlakyFailure`` carrying this
    message.  The ``faulthandler_timeout`` stack dump in
    ``pyproject.toml`` fires later, as a backstop for a test the signal
    cannot reach.
    """

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_BOUND_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small high-intensity dataset shared across tests (16x16, 30/class)."""
    return generate_dataset(
        DatasetConfig(
            intensity=BeamIntensity.HIGH, images_per_class=30, image_size=16
        )
    )


@pytest.fixture(scope="session")
def tiny_noisy_dataset():
    """A small low-intensity (noisy) dataset."""
    return generate_dataset(
        DatasetConfig(intensity=BeamIntensity.LOW, images_per_class=30, image_size=16)
    )


def make_concave_curve(n_epochs=25, asymptote=95.0, start=55.0, rate=0.35, noise=0.0, seed=0):
    """A well-behaved learning curve for engine tests."""
    rng = np.random.default_rng(seed)
    epochs = np.arange(1, n_epochs + 1, dtype=float)
    curve = asymptote - (asymptote - start) * np.exp(-rate * epochs)
    if noise:
        curve = curve + rng.normal(0, noise, n_epochs)
    return np.clip(curve, 0.0, 100.0)
