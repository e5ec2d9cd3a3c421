"""The buffer arena (repro.nn.arena) and the kernels that write into it.

Every layer has one kernel implementation; binding a ``BufferArena``
only decides whether ``Layer._buf`` / ``Layer._tmp`` scratch is pinned
or fresh.  Five families of guarantees:

* **Bound ≡ unbound, bitwise** — outputs, input gradients, parameter
  gradients and optimizer updates of every layer type, ``PhaseBlock``
  and a decoded network, in both compute dtypes, over several batches
  (so the bound twin reuses its buffers while the unbound one cannot).
* **Conv2D against the reference formulation** — the channel-major
  kernel vs ``im2col(...) @ W`` / ``col2im`` at a tolerance fixed from
  the dtype (the reshaped GEMMs accumulate in a different order).
* **Gradchecks and loop references** — finite differences with the
  arena bound; max-pool backward vs an explicit per-window loop.
* **Steady state** — after the first epoch the arena stops growing, and
  repeated epochs allocate no new large arrays.
* **Call-local scratch** — ``_tmp`` blocks are shared by every layer of
  a network: same-shaped layers back to back stay bound ≡ unbound, what
  a layer returned or cached survives its neighbour's call, the shared
  block is counted once, and the footprint of a fixed network is pinned.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nas.decoder import DecoderConfig, PhaseBlock, decode_genome
from repro.nas.genome import Genome, PhaseGenome, random_genome
from repro.nn.arena import BufferArena
from repro.nn.dtype import resolve_dtype
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
)
from repro.nn.layers.conv import col2im, im2col
from repro.nn.network import Network
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer
from repro.tooling.sanitizer import WriteGuard
from tests.test_nn_gradcheck import DTYPE_GRADCHECK, assert_gradients_match

DTYPES = ["float32", "float64"]
CONV_GRID = [(3, 1, "same"), (3, 1, 0), (3, 2, 1), (2, 1, "same"), (1, 1, 0), (1, 2, 0)]


def _bind(model):
    """Bind a layer or a network to a fresh arena."""
    if isinstance(model, Network):
        return model.bind_arena(BufferArena())
    model.bind_arena(BufferArena(), owner="t")
    return model


def assert_bound_equals_unbound(factory, batches):
    """Twin models from ``factory(rng)``, one bound: identical to the bit.

    Runs every batch of ``batches`` through a training forward/backward
    on both twins, then the last batch through an eval forward.
    """
    unbound = factory(np.random.default_rng(11))
    bound = _bind(factory(np.random.default_rng(11)))
    rng = np.random.default_rng(12)
    for x in batches:
        out = unbound.forward(x, training=True)
        np.testing.assert_array_equal(out, bound.forward(x, training=True))
        g = rng.normal(size=out.shape).astype(out.dtype)
        np.testing.assert_array_equal(unbound.backward(g), bound.backward(g.copy()))
        for (name, pu), (_, pb) in zip(unbound.parameters(), bound.parameters()):
            np.testing.assert_array_equal(pu.grad, pb.grad, err_msg=name)
    np.testing.assert_array_equal(
        unbound.forward(batches[-1], training=False),
        bound.forward(batches[-1], training=False),
    )
    return unbound, bound


def _batches(shape, dtype, n=3, seed=2):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape).astype(dtype) for _ in range(n)]


# -- conv: gradcheck with the arena bound ---------------------------------------


class TestConvArenaGradcheck:
    @pytest.mark.parametrize("label", DTYPES)
    @pytest.mark.parametrize("kernel_size,stride,padding", CONV_GRID)
    def test_conv_arena(self, label, kernel_size, stride, padding):
        dtype = resolve_dtype(label)
        rng = np.random.default_rng(5)
        layer = Conv2D(
            3,
            4,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            rng=rng,
            dtype=dtype,
        )
        layer.bind_arena(BufferArena(dtype), owner="conv")
        x = rng.normal(size=(2, 3, 6, 6)).astype(dtype)
        assert_gradients_match(layer, x, rng, **DTYPE_GRADCHECK[label])


# -- conv: the kernel against the im2col / col2im reference formulation ---------


class TestConvReferenceFormulation:
    @pytest.mark.parametrize("label", DTYPES)
    @pytest.mark.parametrize("kernel_size,stride,padding", CONV_GRID)
    def test_forward_backward_match_im2col_gemm(self, label, kernel_size, stride, padding):
        dtype = resolve_dtype(label)
        # fixed from the dtype: each output sums <= 27 products, each
        # weight gradient <= 72, of O(1) operands
        tol = 1000 * np.finfo(dtype).eps
        rng = np.random.default_rng(7)
        layer = Conv2D(
            3, 4, kernel_size=kernel_size, stride=stride, padding=padding, rng=rng, dtype=dtype
        )
        layer.params["bias"].value[...] = rng.normal(size=4).astype(dtype)
        x = rng.normal(size=(2, 3, 6, 6)).astype(dtype)
        out = layer.forward(x, training=True)
        g = rng.normal(size=out.shape).astype(dtype)
        grad_x = layer.backward(g)

        k, pb, pa = kernel_size, layer.pad_before, layer.pad_after
        padded = np.pad(x, ((0, 0), (0, 0), (pb, pa), (pb, pa)))
        cols = im2col(padded, k, k, stride)  # (N, oh*ow, C*k*k)
        kernel = layer.params["weight"].value.reshape(4, -1)
        ref = cols @ kernel.T + layer.params["bias"].value
        ref = ref.transpose(0, 2, 1).reshape(out.shape)
        np.testing.assert_allclose(out, ref, rtol=tol, atol=tol)

        g_flat = g.reshape(2, 4, -1).transpose(0, 2, 1)  # (N, oh*ow, out_c)
        np.testing.assert_allclose(
            layer.params["weight"].grad.reshape(4, -1),
            np.einsum("npo,npk->ok", g_flat, cols),
            rtol=tol,
            atol=tol,
        )
        np.testing.assert_allclose(
            layer.params["bias"].grad, g_flat.sum(axis=(0, 1)), rtol=tol, atol=tol
        )
        ref_gx = col2im(g_flat @ kernel, padded.shape, k, k, stride)
        ref_gx = ref_gx[:, :, pb : pb + x.shape[2], pb : pb + x.shape[3]]
        np.testing.assert_allclose(grad_x, ref_gx, rtol=tol, atol=tol)


# -- bound ≡ unbound, layer by layer --------------------------------------------


class TestByteExactLayers:
    @pytest.mark.parametrize("label", DTYPES)
    def test_dense(self, label):
        dtype = resolve_dtype(label)
        assert_bound_equals_unbound(
            lambda r: Dense(12, 7, rng=r, dtype=dtype), _batches((5, 12), dtype)
        )

    @pytest.mark.parametrize("label", DTYPES)
    @pytest.mark.parametrize("kernel_size,stride,padding", CONV_GRID)
    def test_conv(self, label, kernel_size, stride, padding):
        dtype = resolve_dtype(label)
        assert_bound_equals_unbound(
            lambda r: Conv2D(
                3, 4, kernel_size=kernel_size, stride=stride, padding=padding, rng=r, dtype=dtype
            ),
            _batches((2, 3, 6, 6), dtype),
        )

    @pytest.mark.parametrize(
        "make_pool",
        [lambda r: MaxPool2D(2), lambda r: AvgPool2D(2), lambda r: GlobalAvgPool2D()],
        ids=["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"],
    )
    def test_pooling(self, make_pool):
        for label in DTYPES:
            assert_bound_equals_unbound(
                make_pool, _batches((4, 3, 8, 8), resolve_dtype(label))
            )

    def test_activations(self):
        for label in DTYPES:
            batches = _batches((6, 10), resolve_dtype(label))
            # exact zeros, negative zeros and a denormal: the masked copy
            # must agree with itself down to the sign of zero
            batches[0].ravel()[:3] = [0.0, -0.0, 1e-38]
            assert_bound_equals_unbound(lambda r: ReLU(), batches)

    @pytest.mark.parametrize(
        "bn_cls,shape", [(BatchNorm2D, (4, 5, 3, 3)), (BatchNorm1D, (6, 5))]
    )
    def test_batchnorm_training_eval_and_running_stats(self, bn_cls, shape):
        for label in DTYPES:
            dtype = resolve_dtype(label)
            unbound, bound = assert_bound_equals_unbound(
                lambda r: bn_cls(5, dtype=dtype), _batches(shape, dtype)
            )
            np.testing.assert_array_equal(unbound.running_mean, bound.running_mean)
            np.testing.assert_array_equal(unbound.running_var, bound.running_var)

    @pytest.mark.parametrize("label", DTYPES)
    def test_phase_block(self, label):
        dtype = resolve_dtype(label)
        # 4 nodes, fully connected, skip bit set: multi-predecessor sums,
        # a single sink plus the skip term, and gradient fan-in everywhere
        assert_bound_equals_unbound(
            lambda r: PhaseBlock(4, (1,) * 7, 2, 6, rng=r, dtype=dtype),
            _batches((3, 2, 6, 6), dtype),
        )


def _build_network(dtype):
    rng = np.random.default_rng(13)
    genome = random_genome(rng, n_phases=2, nodes_per_phase=2, density=0.7)
    return decode_genome(
        genome,
        DecoderConfig(input_shape=(1, 12, 12), n_classes=3, channels=(8, 16), dtype=dtype),
        rng=rng,
    )


@pytest.mark.parametrize("label", DTYPES)
def test_decoded_network_bound_equals_unbound_bitwise(label):
    dtype = resolve_dtype(label)
    assert_bound_equals_unbound(
        lambda r: _build_network(dtype), _batches((4, 1, 12, 12), dtype)
    )


# -- call-local scratch, shared across layers -----------------------------------


def _guarded(layers, input_shape):
    network = Network(layers, input_shape=input_shape)
    WriteGuard().watch(network)
    return network


@pytest.mark.parametrize("label", DTYPES)
def test_equal_shape_convs_back_to_back_share_scratch_and_stay_bitwise(label):
    # no layer between them (PhaseBlock never builds this): all three ask
    # for the same partial / grows / dw_batch / wtaps blocks
    dtype = resolve_dtype(label)
    assert_bound_equals_unbound(
        lambda r: _guarded([Conv2D(4, 4, 3, rng=r, dtype=dtype) for _ in range(3)], (4, 6, 6)),
        _batches((3, 4, 6, 6), dtype),
    )


@pytest.mark.parametrize("label", DTYPES)
def test_phase_block_whose_nodes_all_read_the_adapter_stays_bitwise(label):
    # no connection bits: three equal-shape conv -> bn -> relu nodes on one
    # input, every output alive until the sink sum
    dtype = resolve_dtype(label)
    assert_bound_equals_unbound(
        lambda r: _guarded([PhaseBlock(3, (0, 0, 0, 1), 2, 6, rng=r, dtype=dtype)], (2, 6, 6)),
        _batches((3, 2, 6, 6), dtype),
    )


@pytest.mark.parametrize("label", DTYPES)
def test_a_neighbours_call_leaves_output_and_backward_cache_alone(label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(29)
    arena = BufferArena(dtype)
    first, second, twin = (
        Conv2D(4, 4, 3, rng=np.random.default_rng(seed), dtype=dtype) for seed in (30, 31, 30)
    )
    first.bind_arena(arena, owner="a")
    second.bind_arena(arena, owner="b")
    x = rng.normal(size=(3, 4, 6, 6)).astype(dtype)
    out = first.forward(x, training=True)
    kept = out.copy(), [tap.copy() for tap in first._cache[0]]
    second.backward(second.forward(out, training=True))  # same shapes throughout
    np.testing.assert_array_equal(out, kept[0])
    for tap, expected in zip(first._cache[0], kept[1]):
        np.testing.assert_array_equal(tap, expected)
    g = rng.normal(size=out.shape).astype(dtype)
    twin.forward(x, training=True)
    np.testing.assert_array_equal(first.backward(g), twin.backward(g))
    np.testing.assert_array_equal(first.params["weight"].grad, twin.params["weight"].grad)


def test_shared_scratch_is_one_block_counted_once():
    arena = BufferArena(np.float32)
    layers = [ReLU(), ReLU()]
    for owner, layer in zip("ab", layers):
        layer.bind_arena(arena, owner=owner)
    shared = [layer._tmp("t", (4, 8), np.float32) for layer in layers]
    assert shared[0] is shared[1] is arena.scratch("t", (4, 8), np.float32)
    assert (arena.n_buffers, arena.nbytes) == (1, 4 * 8 * 4)
    own = [layer._buf("t", (4, 8), np.float32) for layer in layers]
    assert own[0] is not own[1] and own[0] is not shared[0]
    assert (arena.n_buffers, arena.nbytes) == (3, 3 * 4 * 8 * 4)
    # unbound, call-local scratch is a fresh array like any other
    assert ReLU()._tmp("t", (2,), np.float32) is not ReLU()._tmp("t", (2,), np.float32)


def test_fixed_network_footprint_stays_under_its_ceiling():
    # deterministic (bytes, not seconds): 105.0 MiB when every conv pinned
    # its own k*k columns twice, 51.2 MiB with row columns and shared
    # call-local scratch; the ceiling leaves room for a buffer, not a regression
    rng = np.random.default_rng(3)
    genome = Genome(
        tuple(PhaseGenome(3, bits) for bits in ((1, 1, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)))
    )
    network = decode_genome(
        genome, DecoderConfig(input_shape=(1, 32, 32), n_classes=2, dtype=np.float32), rng=rng
    )
    x = rng.normal(size=(40, 1, 32, 32)).astype(np.float32)
    y = rng.integers(0, 2, 40)
    trainer = Trainer(
        network, x[:32], y[:32], x[32:], y[32:], optimizer=Adam(network, 1e-3),
        batch_size=16, rng=np.random.default_rng(4),
    )
    trainer.train()
    trainer.validate()
    assert network.arena.nbytes <= 62 * 2**20, network.arena.nbytes / 2**20


@pytest.mark.parametrize("label", DTYPES)
@pytest.mark.parametrize(
    "opt_factory",
    [
        lambda net: Adam(net, 1e-3),
        lambda net: Adam(net, 1e-3, weight_decay=1e-4),
    ],
)
def test_optimizer_steps_bitwise_equal(label, opt_factory):
    dtype = resolve_dtype(label)
    net_a, net_b = _build_network(dtype), _bind(_build_network(dtype))
    opt_a, opt_b = opt_factory(net_a), opt_factory(net_b)
    rng = np.random.default_rng(10)
    for x in _batches((4, 1, 12, 12), dtype, n=5):
        g = rng.normal(size=(4, 3)).astype(dtype)
        for net, opt in ((net_a, opt_a), (net_b, opt_b)):
            opt.zero_grad()
            net.forward(x, training=True)
            net.backward(g.copy())
            opt.step()
    for (name, pa), (_, pb) in zip(net_a.parameters(), net_b.parameters()):
        np.testing.assert_array_equal(pa.value, pb.value, err_msg=name)


# -- inference on a bound network ------------------------------------------------


def test_predict_on_a_bound_network_copies_every_chunk():
    # 10 samples in chunks of 4, 4 and a ragged 2: a bound head layer
    # returns the same pinned buffer for both full chunks
    x = np.random.default_rng(26).normal(size=(10, 1, 12, 12))
    unbound, bound = _build_network(np.float64), _bind(_build_network(np.float64))
    expected = unbound.predict(x, batch_size=4)
    np.testing.assert_array_equal(expected, unbound.forward(x, training=False))
    np.testing.assert_array_equal(bound.predict(x, batch_size=4), expected)
    with pytest.raises(ValueError, match="at least one sample"):
        bound.predict(x[:0])


# -- the trainer binds ------------------------------------------------------------


def test_trainer_binds_and_matches_an_unbound_hand_loop():
    n = 20  # 2 full batches of 8 and a ragged 4
    rng = np.random.default_rng(15)
    x = rng.normal(size=(n, 1, 12, 12))
    y = (rng.random(n) * 3).astype(np.int64)

    net = _build_network(np.float64)
    trainer = Trainer(
        net, x, y, x[:8], y[:8], optimizer=Adam(net, 0.01), batch_size=8,
        rng=np.random.default_rng(16),
    )
    assert isinstance(net.arena, BufferArena)
    assert all(layer.arena is net.arena for layer in net.layers)
    losses = [trainer.train().train_loss for _ in range(2)]

    twin = _build_network(np.float64)
    optimizer, loss_fn = Adam(twin, 0.01), trainer.loss
    shuffle = np.random.default_rng(16)
    expected = []
    for _ in range(2):
        order = shuffle.permutation(n)
        values = []
        for start in range(0, n, 8):
            batch = order[start : start + 8]
            optimizer.zero_grad()
            value, grad = loss_fn(twin.forward(x[batch], training=True), y[batch])
            twin.backward(grad)
            optimizer.step()
            values.append(value)
        expected.append(float(np.mean(values)))
    assert losses == expected
    assert twin.arena is None
    np.testing.assert_array_equal(net.predict(x[:8]), twin.predict(x[:8]))


# -- steady state ----------------------------------------------------------------


def test_arena_reaches_steady_state_and_tracks_peak_bytes():
    net = _build_network(np.float32)
    rng = np.random.default_rng(17)
    n = 20  # ragged last batch: 20 = 2*8 + 4 exercises per-shape keying
    x = rng.normal(size=(n, 1, 12, 12)).astype(np.float32)
    y = (rng.random(n) * 3).astype(np.int64)
    trainer = Trainer(
        net,
        x,
        y,
        x[:8],
        y[:8],
        optimizer=Adam(net, 0.01),
        batch_size=8,
        rng=np.random.default_rng(18),
    )
    trainer.train()
    trainer.validate()
    arena = net.arena
    assert arena.nbytes > 0 and arena.n_buffers > 0
    settled = (arena.n_buffers, arena.nbytes)
    tracemalloc.start()
    for _ in range(3):
        trainer.train()
        trainer.validate()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (arena.n_buffers, arena.nbytes) == settled
    # three epochs of training + validation must not allocate new
    # megabyte-scale scratch — the pinned buffers absorb all of it
    assert peak < 512 * 1024, f"steady-state epochs allocated {peak} bytes"


# -- col2im out= -----------------------------------------------------------------


def test_col2im_out_matches_allocating_call():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 3, 7, 7))
    cols = im2col(x, 3, 3, 2)
    gcols = rng.normal(size=cols.shape)
    expected = col2im(gcols, x.shape, 3, 3, 2)
    out = np.full(x.shape, np.nan)
    result = col2im(gcols, x.shape, 3, 3, 2, out=out)
    assert result is out
    np.testing.assert_array_equal(result, expected)
    with pytest.raises(ValueError, match="expected"):
        col2im(gcols, x.shape, 3, 3, 2, out=np.empty((1, 1)))


# -- numpy's overlap guarantee, for the out= kernels the layers rely on ------------

_ROWS, _COLS = 6, 8
_OVERLAP_KERNELS = {
    # name: (out shape, kernel(operand, out, rng))
    "matmul": (
        (_ROWS, _COLS),
        lambda x, out, rng: np.matmul(
            rng.normal(size=(_ROWS, _ROWS)).astype(x.dtype), x, out=out
        ),
    ),
    "sum": ((_COLS,), lambda x, out, rng: np.sum(x, axis=0, out=out)),
    "max": ((_COLS,), lambda x, out, rng: np.max(x, axis=0, out=out)),
    "mean": ((_COLS,), lambda x, out, rng: np.mean(x, axis=0, out=out)),
    "take": (
        (_ROWS, _COLS),
        lambda x, out, rng: np.take(x, rng.permutation(_ROWS), axis=0, out=out),
    ),
}


@pytest.mark.parametrize("label", DTYPES)
@pytest.mark.parametrize("overlap", ["full", "partial"])
@pytest.mark.parametrize("kernel", sorted(_OVERLAP_KERNELS))
def test_numpy_out_overlapping_an_operand_equals_the_unaliased_result(
    kernel, overlap, label
):
    """No static rule polices ``out=`` aliasing a read operand: numpy
    (>= 1.13) detects the overlap and computes as if into a fresh array.
    Pinned here for every non-elementwise kernel ``nn/`` uses with
    ``out=``, so a numpy that drops the guarantee fails this first."""
    out_shape, run = _OVERLAP_KERNELS[kernel]
    size, out_size = _ROWS * _COLS, int(np.prod(out_shape))
    # "full": out lies wholly inside the operand's memory (for the
    # operand-sized kernels it *is* the operand); "partial": out
    # straddles the operand's end
    offset = size - out_size if overlap == "full" else size - out_size // 2
    buf = np.random.default_rng(5).normal(size=2 * size).astype(resolve_dtype(label))
    operand = buf[:size].reshape(_ROWS, _COLS)
    out = buf[offset : offset + out_size].reshape(out_shape)
    assert np.shares_memory(operand, out)
    expected = run(operand.copy(), None, np.random.default_rng(6))
    result = run(operand, out, np.random.default_rng(6))
    assert result is out and result.dtype == expected.dtype
    assert result.tobytes() == expected.tobytes()


# -- MaxPool vectorized backward vs a loop reference ------------------------------


@pytest.mark.parametrize("pool,stride", [(2, 2), (3, 3), (3, 2), (2, 1)])
def test_maxpool_backward_matches_loop_reference(pool, stride):
    rng = np.random.default_rng(23)
    layer = MaxPool2D(pool, stride=stride)
    x = rng.normal(size=(2, 3, 9, 9)).astype(np.float64)
    out = layer.forward(x, training=True)
    g = rng.normal(size=out.shape)
    grad = layer.backward(g)
    # reference: explicit per-window scatter-add to the argmax cell
    expected = np.zeros_like(x)
    n, c, oh, ow = out.shape
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    win = x[
                        ni,
                        ci,
                        yi * stride : yi * stride + pool,
                        xi * stride : xi * stride + pool,
                    ]
                    dy, dx = np.unravel_index(np.argmax(win), win.shape)
                    expected[ni, ci, yi * stride + dy, xi * stride + dx] += g[
                        ni, ci, yi, xi
                    ]
    np.testing.assert_array_equal(grad, expected)


# -- lineage fields ----------------------------------------------------------------


def test_individual_arena_fields_reach_model_record():
    from repro.lineage.records import ModelRecord
    from repro.lineage.tracker import LineageTracker
    from repro.nas.population import Individual

    rng = np.random.default_rng(25)
    genome = random_genome(rng, n_phases=1, nodes_per_phase=2, density=1.0)
    record = ModelRecord(model_id="m1", generation=0, genome=genome.to_dict())
    assert record.arena_enabled is False and record.arena_peak_bytes == 0

    # the published schema keeps arena_enabled, derived from the footprint
    tracker = LineageTracker()
    for model_id, peak in (("trained", 12345), ("sampled", 0)):
        individual = Individual(genome=genome, model_id=model_id, generation=0)
        individual.arena_peak_bytes = peak
        assert individual.to_dict()["arena_peak_bytes"] == peak
        tracker.observe_individual(individual)
        stored = tracker.records[model_id]
        assert stored.arena_peak_bytes == peak
        assert stored.arena_enabled is (peak > 0)
