"""The one-pass ``nn`` kernels against the expressions they replaced.

The replaced formulations live here, and only here, as oracles.  Two
groups, as the two commits that introduced them:

* **Same values** — the masked-copy ReLU, the window-gather max
  pool with its per-window ``argmax`` routing, and the batch-norm forward
  that centred its input twice are held *equal as values* (``-0.0 ==
  +0.0``: ReLU no longer normalises the sign of a zero, DESIGN §12).
* **Re-associated** — the conv input gradient as ``col2im(W^T g)``, the
  whole conv as a ``k*k`` window gather feeding one GEMM (forward, ``dW``
  and ``dX``), and the twelve-pass batch-norm backward sum the same terms
  in another order, so they are held at a tolerance fixed from the dtype.

Both on inputs of their own and layer by layer on one training step of a
decoded network.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nas.decoder import DecoderConfig, PhaseBlock, decode_genome
from repro.nas.genome import random_genome
from repro.nn.dtype import resolve_dtype
from repro.nn.layers import BatchNorm1D, BatchNorm2D, Conv2D, MaxPool2D, ReLU
from repro.nn.layers.conv import col2im
from repro.nn.layers.norm import _BatchNorm
from tests.test_nn_arena import CONV_GRID

DTYPES = ["float32", "float64"]


def _tol(dtype):
    """Every element here sums at most a few hundred O(1) products."""
    return 1000 * np.finfo(dtype).eps


# -- the replaced expressions ---------------------------------------------------


def masked_relu(x):
    """``greater`` + fill + masked ``copyto``: the old ReLU forward."""
    mask = x > 0
    out = np.zeros_like(x)
    np.copyto(out, x, where=mask)
    return out, mask


def gathered_max(x, k, s):
    """Max over every window, gathered through ``sliding_window_view``."""
    windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    return windows.max(axis=(-2, -1))


def argmax_loop_backward(x, g, k, s):
    """Per-window scatter-add of ``g`` to the window's ``argmax`` cell."""
    expected = np.zeros_like(x)
    n, c, oh, ow = g.shape
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    win = x[ni, ci, yi * s : yi * s + k, xi * s : xi * s + k]
                    dy, dx = np.unravel_index(np.argmax(win), win.shape)
                    expected[ni, ci, yi * s + dy, xi * s + dx] += g[ni, ci, yi, xi]
    return expected


def two_centring_batchnorm(layer, x, training):
    """The old ``_BatchNorm.forward``: ``x - mean`` once for the variance
    and again for ``x_hat``.  Returns ``(out, x_hat, inv_std, running_mean,
    running_var)`` from the layer's *current* parameters and statistics."""

    def per_channel(v):
        return layer._shape_params(v, x.ndim)

    mean, var = layer.running_mean, layer.running_var
    running_mean, running_var = mean, var
    if training:
        mean = x.mean(axis=layer._axes)
        t = x - per_channel(mean)
        var = (t * t).mean(axis=layer._axes)
        running_mean = layer.momentum * running_mean + (1 - layer.momentum) * mean
        running_var = layer.momentum * running_var + (1 - layer.momentum) * var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    x_hat = x - per_channel(mean)
    x_hat *= per_channel(inv_std)
    out = x_hat * per_channel(layer.params["gamma"].value)
    out += per_channel(layer.params["beta"].value)
    return out, x_hat, inv_std, running_mean, running_var


def scattered_conv_input_grad(layer, x_shape, g):
    """``col2im(W^T g)`` on the padded image, cropped: the old conv dX."""
    n, _, h, w = x_shape
    k, pb, pa = layer.kernel_size, layer.pad_before, layer.pad_after
    kernel = layer.params["weight"].value.reshape(layer.out_channels, -1)
    g_flat = g.reshape(n, layer.out_channels, -1).transpose(0, 2, 1)  # (N, oh*ow, out_c)
    padded_shape = (n, layer.in_channels, h + pb + pa, w + pb + pa)
    grad_padded = col2im(g_flat @ kernel, padded_shape, k, k, layer.stride)
    return grad_padded[:, :, pb : pb + h, pb : pb + w]


def window_columns(padded, k, stride):
    """Channel-major ``k*k`` window gather ``(N, C, H, W) -> (N, C*k*k,
    oh*ow)``: the old ``Conv2D._columns``."""
    n, c = padded.shape[:2]
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * k * k, oh * ow)


def window_gather_conv(layer, x, g=None):
    """The old ``Conv2D``: one window gather and one GEMM for the forward,
    the same columns transposed for ``dW``, and for ``dX`` a second gather
    over ``g`` laid out on a zero canvas (dilated by the stride, cropped
    where padding wider than ``k - 1`` pushes it off), against the
    flipped, channel-transposed kernel.  Returns ``out`` or, given ``g``,
    ``(out, dW, db, dX)``."""
    n, c, h, w = x.shape
    k, s, pb, pa = layer.kernel_size, layer.stride, layer.pad_before, layer.pad_after
    weight = layer.params["weight"].value
    oc = weight.shape[0]
    cols = window_columns(np.pad(x, ((0, 0), (0, 0), (pb, pa), (pb, pa))), k, s)
    oh, ow = layer.output_shape(x.shape[1:])[1:]
    out = np.matmul(weight.reshape(oc, -1), cols).reshape(n, oc, oh, ow)
    if layer.use_bias:
        out += layer.params["bias"].value.reshape(1, -1, 1, 1)
    if g is None:
        return out
    g3 = g.reshape(n, oc, oh * ow)
    dw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    first = k - 1 - pb
    canvas = np.zeros((n, oc, h + k - 1, w + k - 1), dtype=g.dtype)
    lo = max(0, -(first // s))
    hi_h = min(oh, (h + k - 2 - first) // s + 1)
    hi_w = min(ow, (w + k - 2 - first) // s + 1)
    if lo < hi_h and lo < hi_w:
        canvas[
            :,
            :,
            first + lo * s : first + (hi_h - 1) * s + 1 : s,
            first + lo * s : first + (hi_w - 1) * s + 1 : s,
        ] = g[:, :, lo:hi_h, lo:hi_w]
    flipped = np.ascontiguousarray(weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    dx = np.matmul(flipped.reshape(c, -1), window_columns(canvas, k, 1)).reshape(x.shape)
    return out, dw, g3.sum(axis=(0, 2)), dx


def twelve_pass_batchnorm_backward(layer, x_hat, inv_std, g):
    """``inv/m * (m*gamma*g - sum(gamma*g) - x_hat * sum(gamma*g*x_hat))``."""
    m = g.size // layer.num_features
    gamma = layer._shape_params(layer.params["gamma"].value, g.ndim)
    inv = layer._shape_params(inv_std, g.ndim)
    gg = g * gamma
    sum_g = layer._shape_params(gg.sum(axis=layer._axes), g.ndim)
    sum_gx = layer._shape_params((gg * x_hat).sum(axis=layer._axes), g.ndim)
    return ((gg * m - sum_g) - x_hat * sum_gx) * (inv / m)


# -- activations ------------------------------------------------------------------


@pytest.mark.parametrize("label", DTYPES)
def test_activation_equals_the_masked_copy_on_finite_inputs(label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(5, 4, 6, 6)).astype(dtype)
    x.ravel()[:4] = [0.0, -0.0, np.finfo(dtype).smallest_subnormal, -np.finfo(dtype).tiny]
    layer = ReLU()
    expected, mask = masked_relu(x)
    np.testing.assert_array_equal(layer.forward(x, training=True), expected)
    np.testing.assert_array_equal(layer.forward(x, training=False), expected)
    layer.forward(x, training=True)
    g = rng.normal(size=x.shape).astype(dtype)
    np.testing.assert_array_equal(
        layer.backward(g), np.where(mask, g, g * dtype.type(0.0))
    )


@pytest.mark.parametrize("label", DTYPES)
def test_activations_on_nan_inf_signed_zero_and_a_denormal(label):
    dtype = resolve_dtype(label)
    denormal = np.finfo(dtype).smallest_subnormal
    x = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, denormal, -denormal, -1.0, 2.0], dtype)
    for training in (False, True):
        relu = ReLU().forward(x, training=training)
        # NaN propagates (the masked copy wrote 0: `nan > 0` is false)
        assert np.isnan(relu[0])
        np.testing.assert_array_equal(relu[1:], [0, np.inf, 0, 0, denormal, 0, 0, 2])
        assert relu.dtype == dtype
    # gradients flow where x > 0 only: not through NaN, zeros or -inf
    layer = ReLU()
    layer.forward(x, training=True)
    np.testing.assert_array_equal(
        layer.backward(np.ones_like(x)), [0, 0, 1, 0, 0, 1, 0, 0, 1]
    )


# -- max pooling ------------------------------------------------------------------


def _tied(rng, shape, dtype):
    """Inputs quantised to one decimal: most windows hold a tie."""
    return np.round(rng.normal(size=shape), 1).astype(dtype)


@pytest.mark.parametrize("label", DTYPES)
@pytest.mark.parametrize("hw", [(8, 8), (9, 7), (11, 10)])
@pytest.mark.parametrize("pool,stride", [(2, 2), (3, 3), (2, 3), (1, 1), (3, 2), (2, 1), (3, 1)])
def test_maxpool_equals_gathered_max_and_argmax_routing_on_ties(pool, stride, hw, label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(37)
    x = _tied(rng, (2, 3, *hw), dtype)
    layer = MaxPool2D(pool, stride=stride)
    out = layer.forward(x, training=True)
    np.testing.assert_array_equal(out, gathered_max(x, pool, stride))
    np.testing.assert_array_equal(layer.forward(x, training=False), out)
    layer.forward(x, training=True)
    # small integers: every sum of them is exact, so the comparison is
    # of the routing alone, whatever order a shared cell is summed in
    g = rng.integers(-8, 9, size=out.shape).astype(dtype)
    np.testing.assert_array_equal(layer.backward(g), argmax_loop_backward(x, g, pool, stride))


def test_maxpool_rows_no_window_covers_get_zero_gradient():
    layer = MaxPool2D(2)
    x = np.arange(2 * 1 * 5 * 5, dtype=np.float64).reshape(2, 1, 5, 5)
    layer.forward(x, training=True)
    grad = layer.backward(np.full((2, 1, 2, 2), np.nan))  # poison: must not spread
    assert np.all(grad[:, :, 4, :] == 0) and np.all(grad[:, :, :, 4] == 0)


# -- batch-norm forward -----------------------------------------------------------


@pytest.mark.parametrize("label", DTYPES)
@pytest.mark.parametrize("bn_cls,shape", [(BatchNorm2D, (6, 5, 4, 4)), (BatchNorm1D, (9, 5))])
def test_batchnorm_forward_equals_the_two_centring_expression(bn_cls, shape, label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(41)
    layer = bn_cls(5, dtype=dtype)
    layer.params["gamma"].value[...] = rng.normal(size=5).astype(dtype)
    layer.params["beta"].value[...] = rng.normal(size=5).astype(dtype)
    for _ in range(3):  # running statistics move between the batches
        x = (3.0 * rng.normal(size=shape) + 1.5).astype(dtype)
        expected = two_centring_batchnorm(layer, x, training=True)
        out = layer.forward(x, training=True)
        np.testing.assert_array_equal(out, expected[0])
        x_hat, inv_std = layer._cache
        np.testing.assert_array_equal(x_hat, expected[1])
        np.testing.assert_array_equal(inv_std, expected[2])
        np.testing.assert_array_equal(layer.running_mean, expected[3])
        np.testing.assert_array_equal(layer.running_var, expected[4])
        assert layer.running_mean.dtype == layer.running_var.dtype == dtype
    expected = two_centring_batchnorm(layer, x, training=False)
    np.testing.assert_array_equal(layer.forward(x, training=False), expected[0])
    np.testing.assert_array_equal(layer.running_mean, expected[3])


# -- batch-norm backward ----------------------------------------------------------


@pytest.mark.parametrize("label", DTYPES)
@pytest.mark.parametrize("bn_cls,shape", [(BatchNorm2D, (6, 5, 4, 4)), (BatchNorm1D, (9, 5))])
def test_batchnorm_backward_equals_the_twelve_pass_expression(bn_cls, shape, label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(47)
    layer = bn_cls(5, dtype=dtype)
    layer.params["gamma"].value[...] = rng.normal(size=5).astype(dtype)
    x = (3.0 * rng.normal(size=shape) + 1.5).astype(dtype)
    layer.forward(x, training=True)
    x_hat, inv_std = (a.copy() for a in layer._cache)
    g = rng.normal(size=shape).astype(dtype)
    grad_in = layer.backward(g)
    assert grad_in.dtype == dtype
    np.testing.assert_allclose(
        grad_in,
        twelve_pass_batchnorm_backward(layer, x_hat, inv_std, g),
        rtol=_tol(dtype),
        atol=_tol(dtype),
    )
    np.testing.assert_array_equal(layer._cache[0], x_hat)  # the cache survives backward
    np.testing.assert_array_equal(layer.params["gamma"].grad, (g * x_hat).sum(axis=layer._axes))
    np.testing.assert_array_equal(layer.params["beta"].grad, g.sum(axis=layer._axes))


# -- conv input gradient ----------------------------------------------------------

# beyond test_nn_arena's CONV_GRID: (kernel, stride, padding, (h, w))
CONV_EDGE_CASES = [
    (4, 1, "same", (7, 6)),  # even kernel: asymmetric (1, 2) padding
    (2, 1, (1, 0), (6, 6)),
    (3, 2, 0, (8, 8)),  # (h - k) % stride != 0: the last input row feeds no window
    (3, 2, (1, 0), (7, 9)),
    (2, 3, 0, (9, 7)),  # stride > kernel: whole rows between the windows
    (3, 1, 3, (5, 5)),  # padding > k - 1: some outputs saw padding only
    (3, 2, (4, 5), (4, 6)),
    (1, 1, 2, (3, 3)),
    (1, 2, (3, 0), (2, 5)),
    (5, 1, 2, (3, 4)),  # kernel larger than the input
]


@pytest.mark.parametrize("label", DTYPES)
@pytest.mark.parametrize("kernel_size,stride,padding,hw", CONV_EDGE_CASES)
def test_conv_input_grad_equals_the_col2im_scatter(kernel_size, stride, padding, hw, label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(53)
    layer = Conv2D(
        3, 4, kernel_size=kernel_size, stride=stride, padding=padding, rng=rng, dtype=dtype
    )
    x = rng.normal(size=(2, 3, *hw)).astype(dtype)
    out = layer.forward(x, training=True)
    g = rng.normal(size=out.shape).astype(dtype)
    grad_x = layer.backward(g)
    assert grad_x.shape == x.shape and grad_x.dtype == dtype
    expected = scattered_conv_input_grad(layer, x.shape, g)
    np.testing.assert_allclose(grad_x, expected, rtol=_tol(dtype), atol=_tol(dtype))
    # an input cell no window covers gets exactly zero, not a rounding residue
    assert np.all(grad_x[expected == 0] == 0)


def test_conv_input_rows_no_window_reaches_get_exactly_zero():
    layer = Conv2D(2, 3, kernel_size=3, stride=2, padding=0, rng=np.random.default_rng(59))
    x = np.random.default_rng(61).normal(size=(2, 2, 8, 8))  # windows cover rows 0..6
    out = layer.forward(x, training=True)
    grad_x = layer.backward(np.ones_like(out))
    assert np.all(grad_x[:, :, 7, :] == 0) and np.all(grad_x[:, :, :, 7] == 0)
    assert np.all(grad_x[:, :, :7, :7] != 0)


# -- conv against the window gather + single GEMM ------------------------------------


@pytest.mark.parametrize("label", DTYPES)
@pytest.mark.parametrize(
    "kernel_size,stride,padding,hw",
    [(k, s, p, (6, 6)) for k, s, p in CONV_GRID] + CONV_EDGE_CASES,
)
def test_conv_equals_the_window_gather_and_single_gemm(kernel_size, stride, padding, hw, label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(67)
    layer = Conv2D(
        3, 4, kernel_size=kernel_size, stride=stride, padding=padding, rng=rng, dtype=dtype
    )
    layer.params["bias"].value[...] = rng.normal(size=4).astype(dtype)
    x = rng.normal(size=(2, 3, *hw)).astype(dtype)
    out = layer.forward(x, training=True)
    g = rng.normal(size=out.shape).astype(dtype)
    grad_x = layer.backward(g)
    expected = window_gather_conv(layer, x, g)
    got = (out, layer.params["weight"].grad, layer.params["bias"].grad, grad_x)
    for name, a, b in zip(("out", "dW", "db", "dX"), got, expected):
        assert a.shape == b.shape and a.dtype == dtype, name
        np.testing.assert_allclose(a, b, rtol=_tol(dtype), atol=_tol(dtype), err_msg=name)
    np.testing.assert_allclose(
        layer.forward(x, training=False), expected[0], rtol=_tol(dtype), atol=_tol(dtype)
    )


# -- one training step of a decoded network, layer by layer --------------------------


def _primitive_layers(network):
    for layer in network.layers:
        if isinstance(layer, PhaseBlock):
            yield from (sub for _, sub in layer._sublayers())
        else:
            yield layer


def _record_one_training_step(network, x, grad):
    """Run forward/backward once; return one ``{layer, x, out, g_out, g_in}``
    per primitive layer, every array copied as the layer saw it (a batch
    norm's record also holds the oracle's answer, taken before the
    forward moved the running statistics)."""
    records = []
    for layer in _primitive_layers(network):
        record = {"layer": layer}
        records.append(record)

        def forward(x_in, training=False, _layer=layer, _record=record):
            if isinstance(_layer, _BatchNorm):
                _record["expected"] = two_centring_batchnorm(_layer, x_in, training)
            _record["x"] = x_in.copy()
            out = type(_layer).forward(_layer, x_in, training=training)
            _record["out"] = out.copy()
            return out

        def backward(g_out, _layer=layer, _record=record):
            _record["g_out"] = g_out.copy()
            g_in = type(_layer).backward(_layer, g_out)
            _record["g_in"] = g_in.copy()
            return g_in

        layer.forward, layer.backward = forward, backward
    network.forward(x, training=True)
    network.backward(grad)
    return records


@pytest.mark.parametrize("label", DTYPES)
def test_decoded_network_training_step_equals_the_replaced_kernels_layer_by_layer(label):
    dtype = resolve_dtype(label)
    rng = np.random.default_rng(43)
    genome = random_genome(rng, n_phases=3, nodes_per_phase=3, density=0.6)
    network = decode_genome(
        genome,
        DecoderConfig(input_shape=(1, 16, 16), n_classes=2, channels=(4, 6, 8), dtype=dtype),
        rng=rng,
    )
    # quantised pixels put exact ties (and exact zeros after ReLU) into
    # the pooled maps, where the tie rule is what is being compared
    x = np.round(rng.normal(size=(6, 1, 16, 16)), 1).astype(dtype)
    grad = rng.normal(size=(6, 2)).astype(dtype)
    seen = set()
    for call in _record_one_training_step(network, x, grad):
        layer = call["layer"]
        seen.add(type(layer).__name__)
        if isinstance(layer, ReLU):
            expected, mask = masked_relu(call["x"])
            np.testing.assert_array_equal(call["out"], expected)
            np.testing.assert_array_equal(call["g_in"], call["g_out"] * mask)
        elif isinstance(layer, MaxPool2D):
            np.testing.assert_array_equal(call["out"], gathered_max(call["x"], 2, 2))
            np.testing.assert_array_equal(
                call["g_in"], argmax_loop_backward(call["x"], call["g_out"], 2, 2)
            )
        elif isinstance(layer, _BatchNorm):
            out, x_hat, _, running_mean, running_var = call["expected"]
            np.testing.assert_array_equal(call["out"], out)
            np.testing.assert_array_equal(layer.running_mean, running_mean)
            np.testing.assert_array_equal(layer.running_var, running_var)
            g = call["g_out"]
            np.testing.assert_array_equal(
                layer.params["gamma"].grad, (g * x_hat).sum(axis=layer._axes)
            )
            np.testing.assert_array_equal(layer.params["beta"].grad, g.sum(axis=layer._axes))
            np.testing.assert_allclose(
                call["g_in"],
                twelve_pass_batchnorm_backward(layer, x_hat, call["expected"][2], g),
                rtol=_tol(dtype),
                atol=_tol(dtype),
            )
        elif isinstance(layer, Conv2D):
            np.testing.assert_allclose(
                call["g_in"],
                scattered_conv_input_grad(layer, call["x"].shape, call["g_out"]),
                rtol=_tol(dtype),
                atol=_tol(dtype),
            )
            # one backward into zeroed accumulators: the gradient is dW itself
            out, dw, db, _ = window_gather_conv(layer, call["x"], call["g_out"])
            got = (call["out"], layer.params["weight"].grad, layer.params["bias"].grad)
            for a, b in zip(got, (out, dw, db)):
                np.testing.assert_allclose(a, b, rtol=_tol(dtype), atol=_tol(dtype))
    assert {"ReLU", "MaxPool2D", "BatchNorm2D", "Conv2D"} <= seen
