"""Coverage for smaller surfaces: initializers and logging."""

import logging

import numpy as np
import pytest

from repro.nn.initializers import get_initializer, glorot_uniform, he_normal, ones, zeros
from repro.utils.logging import configure_logging, get_logger


class TestInitializers:
    def test_he_normal_variance_matches_fan_in(self, rng):
        shape = (200, 300)  # dense: fan_in = 200
        w = he_normal(shape, rng)
        assert w.std() == pytest.approx(np.sqrt(2 / 200), rel=0.1)
        assert abs(w.mean()) < 0.02

    def test_he_normal_conv_fans(self, rng):
        shape = (16, 8, 3, 3)  # conv: fan_in = 8*9 = 72
        w = he_normal(shape, rng)
        assert w.std() == pytest.approx(np.sqrt(2 / 72), rel=0.1)

    def test_glorot_uniform_bounds(self, rng):
        shape = (100, 50)
        w = glorot_uniform(shape, rng)
        limit = np.sqrt(6 / 150)
        assert w.min() >= -limit and w.max() <= limit
        assert abs(w.mean()) < 0.02

    def test_constant_initializers(self, rng):
        assert np.all(zeros((3, 3), rng) == 0.0)
        assert np.all(ones((4,), rng) == 1.0)

    def test_registry(self, rng):
        assert get_initializer("he_normal") is he_normal
        with pytest.raises(KeyError, match="unknown initializer"):
            get_initializer("magic")


class TestLogging:
    def test_namespaced_logger(self):
        logger = get_logger("core.engine")
        assert logger.name == "repro.core.engine"

    def test_configure_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            configure_logging()
            count_once = len(logging.getLogger("repro").handlers)
            configure_logging()
            assert len(logging.getLogger("repro").handlers) == count_once
        finally:
            root.handlers = before
            logging.disable(logging.INFO)

