"""Performance benchmarks of the NumPy NN substrate's hot kernels.

Not a paper artifact — these track the training substrate's throughput
(the guide rule: no optimization without measurement).  Groups: the
row-column convolution forward/backward, dense GEMM, one full training
step of a decoded NSGA-Net network, and one engine fit.

The conv cases are the configuration every workload runs — float32,
bound to an arena, equal widths, the three shapes the decoder emits at
batch 16 — plus one float64 case.  A conv timed alone keeps its buffers
cache-warm; inside a network it does not, so the training step runs
float32 through a ``Trainer``-bound network and pays the cold cost the
isolated numbers hide (CHANGES.md, PR 23, has both per call).

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
from repro.nn.arena import BufferArena
from repro.nn.dtype import resolve_dtype
from repro.nn.layers import Conv2D, Dense, MaxPool2D, ReLU
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer

from tests.conftest import make_concave_curve


@pytest.fixture(scope="module")
def kernel_rng():
    return np.random.default_rng(0)


# (channels, side, dtype): the decoder's three 3x3 shapes, and float64 once
CONV_CASES = [(8, 32, "float32"), (16, 16, "float32"), (32, 8, "float32"), (8, 32, "float64")]
CONV_IDS = [f"{c}to{c}at{side}-{label}" for c, side, label in CONV_CASES]


def _bound_conv(channels, side, label, rng):
    dtype = resolve_dtype(label)
    layer = Conv2D(channels, channels, kernel_size=3, rng=rng, dtype=dtype)
    layer.bind_arena(BufferArena(dtype), owner="conv")
    return layer, rng.normal(size=(16, channels, side, side)).astype(dtype)


@pytest.mark.benchmark(group="nn-kernels")
@pytest.mark.parametrize("channels,side,label", CONV_CASES, ids=CONV_IDS)
def test_conv_forward(benchmark, kernel_rng, channels, side, label):
    layer, x = _bound_conv(channels, side, label, kernel_rng)
    result = benchmark(lambda: layer.forward(x, training=True))
    assert result.shape == x.shape and result.dtype == x.dtype


@pytest.mark.benchmark(group="nn-kernels")
@pytest.mark.parametrize("channels,side,label", CONV_CASES, ids=CONV_IDS)
def test_conv_backward(benchmark, kernel_rng, channels, side, label):
    layer, x = _bound_conv(channels, side, label, kernel_rng)
    out = layer.forward(x, training=True)
    grad = kernel_rng.normal(size=out.shape).astype(x.dtype)
    result = benchmark(lambda: layer.backward(grad))
    assert result.shape == x.shape and result.dtype == x.dtype


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
        genome, DecoderConfig((1, 32, 32), 2, (8, 16, 32), dtype=np.float32), rng=kernel_rng
    )
    x = kernel_rng.normal(size=(16, 1, 32, 32)).astype(np.float32)
    y = kernel_rng.integers(0, 2, 16)
    # one batch per epoch: train() is one zero_grad/forward/loss/backward/step
    trainer = Trainer(
        network, x, y, x, y, optimizer=Adam(network, 1e-3), batch_size=16, rng=kernel_rng
    )
    assert network.arena is not None
    stats = benchmark(trainer.train)
    assert np.isfinite(stats.train_loss)


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
