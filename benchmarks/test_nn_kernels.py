"""Performance benchmarks of the NumPy NN substrate's hot kernels.

Not a paper artifact — these track the training substrate's throughput
(the guide rule: no optimization without measurement).  Groups:
im2col-based convolution forward/backward, dense GEMM, one full
training step of a decoded NSGA-Net network, and one engine fit.

The two ratio guards at the end hold an elementwise kernel to a multiple
of the one memory pass it has to make.  Both sides are timed in the same
process (best of 40), so the bound does not depend on the host's speed.
"""

import timeit

import numpy as np
import pytest

from repro.core.engine import PredictionEngine
from repro.nas.decoder import DecoderConfig, decode_genome
from repro.nas.genome import random_genome
from repro.nn.layers import Conv2D, Dense, MaxPool2D, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Adam

from tests.conftest import make_concave_curve


@pytest.fixture(scope="module")
def kernel_rng():
    return np.random.default_rng(0)


@pytest.mark.benchmark(group="nn-kernels")
def test_conv_forward(benchmark, kernel_rng):
    layer = Conv2D(8, 16, kernel_size=3, rng=kernel_rng)
    x = kernel_rng.normal(size=(16, 8, 32, 32))
    result = benchmark(lambda: layer.forward(x))
    assert result.shape == (16, 16, 32, 32)


@pytest.mark.benchmark(group="nn-kernels")
def test_conv_backward(benchmark, kernel_rng):
    layer = Conv2D(8, 16, kernel_size=3, rng=kernel_rng)
    x = kernel_rng.normal(size=(16, 8, 32, 32))
    out = layer.forward(x, training=True)
    grad = kernel_rng.normal(size=out.shape)

    def run():
        layer.forward(x, training=True)
        return layer.backward(grad)

    result = benchmark(run)
    assert result.shape == x.shape


@pytest.mark.benchmark(group="nn-kernels")
def test_dense_forward_backward(benchmark, kernel_rng):
    layer = Dense(512, 256, rng=kernel_rng)
    x = kernel_rng.normal(size=(64, 512))
    grad = kernel_rng.normal(size=(64, 256))

    def run():
        layer.forward(x, training=True)
        return layer.backward(grad)

    result = benchmark(run)
    assert result.shape == x.shape


@pytest.mark.benchmark(group="nn-kernels")
def test_full_training_step(benchmark, kernel_rng):
    genome = random_genome(kernel_rng)
    network = decode_genome(
        genome, DecoderConfig((1, 32, 32), 2, (8, 16, 32)), rng=kernel_rng
    )
    optimizer = Adam(network, 1e-3)
    loss = SoftmaxCrossEntropy()
    x = kernel_rng.normal(size=(16, 1, 32, 32))
    y = kernel_rng.integers(0, 2, 16)

    def step():
        optimizer.zero_grad()
        logits = network.forward(x, training=True)
        _, grad = loss(logits, y)
        network.backward(grad)
        optimizer.step()

    benchmark(step)


@pytest.mark.benchmark(group="nn-kernels")
def test_engine_fit(benchmark):
    engine = PredictionEngine()
    history = list(make_concave_curve(15, noise=0.4, seed=2))
    result = benchmark(lambda: engine.predictor(15, history))
    assert result is not None


@pytest.mark.parametrize(
    "make_layer,bound",
    [
        (ReLU, 4.0),  # maximum + greater: 1.5x; the masked copy was 26x
        # 2.8x (5.8x on the short rows of (16, 32, 8, 8)); the window gather was 86x
        (lambda: MaxPool2D(2), 10.0),
    ],
    ids=["relu", "maxpool"],
)
def test_forward_stays_within_a_multiple_of_one_memory_pass(make_layer, bound):
    shape = (16, 8, 32, 32)
    x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    out = np.empty_like(x)
    layer = make_layer()
    one_pass = min(timeit.repeat(lambda: np.maximum(x, 0, out=out), number=1, repeat=40))
    forward = min(timeit.repeat(lambda: layer.forward(x, training=True), number=1, repeat=40))
    assert forward <= bound * one_pass, (
        f"{type(layer).__name__}.forward took {forward / one_pass:.1f}x one "
        f"np.maximum pass over {shape} (bound {bound}x)"
    )
