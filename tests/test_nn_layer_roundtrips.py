"""Parametrized config/serialization round-trips for every layer type."""

import numpy as np
import pytest

from repro.nas.decoder import PhaseBlock
from repro.nn.layers import (
    LAYER_TYPES,
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    ReLU,
    Sigmoid,
)

# (constructor, per-sample input shape) for each layer type
LAYER_CASES = [
    (lambda rng: Dense(6, 4, rng=rng), (6,)),
    (lambda rng: Dense(6, 4, use_bias=False, rng=rng), (6,)),
    (lambda rng: Conv2D(2, 3, kernel_size=3, rng=rng), (2, 6, 6)),
    (lambda rng: Conv2D(2, 3, kernel_size=3, stride=2, padding=1, rng=rng), (2, 6, 6)),
    (lambda rng: MaxPool2D(2), (2, 6, 6)),
    (lambda rng: AvgPool2D(3, stride=1), (2, 6, 6)),
    (lambda rng: GlobalAvgPool2D(), (2, 6, 6)),
    (lambda rng: BatchNorm2D(2), (2, 4, 4)),
    (lambda rng: BatchNorm1D(5), (5,)),
    (lambda rng: Flatten(), (2, 3, 3)),
    (lambda rng: ReLU(), (5,)),
    (lambda rng: Sigmoid(), (5,)),
    (lambda rng: PhaseBlock(3, (1, 0, 1, 1), 2, 4, rng=rng), (2, 5, 5)),
    # float32, as the decoder builds them for a float32 search: the dtype
    # is part of every config, so a checkpoint reloads at its own precision
    (lambda rng: Conv2D(2, 3, kernel_size=1, padding=0, rng=rng, dtype="float32"), (2, 6, 6)),
    (lambda rng: BatchNorm2D(2, dtype="float32"), (2, 4, 4)),
    (lambda rng: PhaseBlock(3, (1, 1, 1, 0), 2, 4, rng=rng, dtype="float32"), (2, 5, 5)),
]


@pytest.mark.parametrize("factory,shape", LAYER_CASES)
class TestLayerRoundTrips:
    def test_config_rebuilds_same_type(self, factory, shape, rng):
        layer = factory(rng)
        cls = LAYER_TYPES[type(layer).__name__]
        rebuilt = cls(**layer.get_config())
        assert type(rebuilt) is type(layer)
        assert rebuilt.get_config() == layer.get_config()

    def test_output_shape_matches_execution(self, factory, shape, rng):
        layer = factory(rng)
        x = rng.normal(size=(3, *shape))
        out = layer.forward(x, training=False)
        assert out.shape == (3, *layer.output_shape(shape))

    def test_flops_non_negative(self, factory, shape, rng):
        layer = factory(rng)
        assert layer.flops(shape) >= 0

    def test_repr_mentions_type(self, factory, shape, rng):
        layer = factory(rng)
        assert type(layer).__name__ in repr(layer)

    def test_backward_needs_a_training_mode_forward(self, factory, shape, rng):
        layer = factory(rng)
        x = rng.normal(size=(3, *shape))
        grad = np.ones((3, *layer.output_shape(shape)))
        with pytest.raises(RuntimeError, match="before a training-mode forward"):
            layer.backward(grad)  # fresh layer
        layer.forward(x, training=True)
        layer.backward(grad)
        layer.forward(x, training=False)  # an eval pass drops the cache
        with pytest.raises(RuntimeError, match="before a training-mode forward"):
            layer.backward(grad)


def test_all_registered_types_covered():
    covered = {
        type(factory(np.random.default_rng(0))).__name__ for factory, _ in LAYER_CASES
    }
    assert covered == set(LAYER_TYPES)


def _layer_subclasses(cls=Layer):
    for sub in cls.__subclasses__():
        yield sub
        yield from _layer_subclasses(sub)


def test_every_concrete_layer_is_registered():
    """A layer left out of ``LAYER_TYPES`` trains fine and then fails to
    load from its own checkpoint; read from the live classes, so a new
    layer module cannot forget the registry."""
    concrete = {
        cls
        for cls in _layer_subclasses()
        if (cls.__module__.startswith("repro.nn.layers.") or cls is PhaseBlock)
        and not cls.__name__.startswith("_")
    }
    assert len(concrete) >= 11
    missing = concrete - set(LAYER_TYPES.values())
    assert not missing, f"not in LAYER_TYPES: {sorted(c.__name__ for c in missing)}"
