"""Numerical gradient checks for every trainable layer.

For each layer we compare analytic backward() gradients — both with
respect to the input and to every parameter — against central finite
differences of a scalar loss ``sum(forward(x) * w)`` with fixed random
weights ``w``.
"""

import numpy as np
import pytest

from repro.nas.decoder import PhaseBlock
from repro.nn.dtype import SUPPORTED_DTYPES, resolve_dtype
from repro.nn.layers.conv import col2im, im2col
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    Sigmoid,
)

EPS = 1e-6
TOL = 1e-5

# Central-difference step and pass tolerance per compute dtype.  In
# float32 the forward pass carries ~1e-7 relative rounding noise, so the
# step must be large enough for the loss difference to rise above that
# noise, and the tolerance correspondingly looser.
DTYPE_GRADCHECK = {
    "float64": {"eps": EPS, "tol": TOL},
    "float32": {"eps": 1e-2, "tol": 3e-2},
}


def numeric_vs_analytic(layer, x, rng, eps=EPS):
    """Return (max input-grad error, {param: max error})."""
    out = layer.forward(x, training=True)
    w = rng.normal(size=out.shape)

    def loss_from(x_in):
        return float(np.sum(layer.forward(x_in, training=True) * w))

    # analytic gradients (recompute forward to leave caches fresh)
    layer.zero_grad()
    layer.forward(x, training=True)
    grad_x = layer.backward(w.astype(x.dtype) if x.dtype != w.dtype else w)

    # numeric input gradient
    num_grad_x = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    num_flat = num_grad_x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_from(x)
        flat[i] = orig - eps
        down = loss_from(x)
        flat[i] = orig
        num_flat[i] = (up - down) / (2 * eps)
    err_x = float(np.max(np.abs(grad_x - num_grad_x)))

    # numeric parameter gradients
    param_errors = {}
    for name, param in layer.parameters():
        analytic = param.grad.copy()
        numeric = np.zeros_like(param.value, dtype=np.float64)
        pflat = param.value.ravel()
        nflat = numeric.ravel()
        for i in range(pflat.size):
            orig = pflat[i]
            pflat[i] = orig + eps
            up = loss_from(x)
            pflat[i] = orig - eps
            down = loss_from(x)
            pflat[i] = orig
            nflat[i] = (up - down) / (2 * eps)
        param_errors[name] = float(np.max(np.abs(analytic - numeric)))
    return err_x, param_errors


def assert_gradients_match(layer, x, rng, eps=EPS, tol=TOL):
    err_x, param_errors = numeric_vs_analytic(layer, x, rng, eps=eps)
    assert err_x < tol, f"input gradient error {err_x}"
    for name, err in param_errors.items():
        assert err < tol, f"parameter {name} gradient error {err}"


@pytest.fixture
def grad_rng():
    return np.random.default_rng(99)


class TestDenseGrad:
    def test_dense(self, grad_rng):
        layer = Dense(5, 4, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(3, 5)), grad_rng)

    def test_dense_no_bias(self, grad_rng):
        layer = Dense(4, 3, use_bias=False, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 4)), grad_rng)


class TestConvGrad:
    def test_conv_same_padding(self, grad_rng):
        layer = Conv2D(2, 3, kernel_size=3, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 2, 5, 5)), grad_rng)

    def test_conv_no_padding(self, grad_rng):
        layer = Conv2D(1, 2, kernel_size=3, padding=0, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 1, 6, 6)), grad_rng)

    def test_conv_stride_2(self, grad_rng):
        layer = Conv2D(2, 2, kernel_size=3, stride=2, padding=1, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 2, 6, 6)), grad_rng)

    def test_conv_1x1(self, grad_rng):
        layer = Conv2D(3, 2, kernel_size=1, padding=0, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 3, 4, 4)), grad_rng)


class TestPoolingGrad:
    def test_maxpool(self, grad_rng):
        layer = MaxPool2D(2)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 2, 6, 6)), grad_rng)

    def test_maxpool_overlapping(self, grad_rng):
        layer = MaxPool2D(3, stride=2)
        # well-separated values avoid argmax ties at finite-difference scale
        x = grad_rng.permutation(np.arange(2 * 1 * 7 * 7)).reshape(2, 1, 7, 7) * 0.37
        assert_gradients_match(layer, x.astype(float), grad_rng)

    def test_avgpool(self, grad_rng):
        layer = AvgPool2D(2)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 3, 4, 4)), grad_rng)

    def test_global_avgpool(self, grad_rng):
        layer = GlobalAvgPool2D()
        assert_gradients_match(layer, grad_rng.normal(size=(3, 4, 5, 5)), grad_rng)


class TestActivationGrad:
    def test_relu(self, grad_rng):
        # shift away from 0 to avoid kink non-differentiability
        x = grad_rng.normal(size=(3, 7))
        x[np.abs(x) < 0.01] += 0.05
        assert_gradients_match(ReLU(), x, grad_rng)

    def test_sigmoid(self, grad_rng):
        assert_gradients_match(Sigmoid(), grad_rng.normal(size=(3, 6)), grad_rng)


class TestNormGrad:
    def test_batchnorm2d(self, grad_rng):
        layer = BatchNorm2D(3)
        assert_gradients_match(layer, grad_rng.normal(size=(4, 3, 3, 3)), grad_rng)

    def test_batchnorm1d(self, grad_rng):
        layer = BatchNorm1D(5)
        assert_gradients_match(layer, grad_rng.normal(size=(6, 5)), grad_rng)


class TestStructuralGrad:
    def test_flatten(self, grad_rng):
        assert_gradients_match(Flatten(), grad_rng.normal(size=(2, 3, 4, 4)), grad_rng)

    def test_phase_block_dense_connectivity(self, grad_rng):
        # all connections + skip: exercises multi-predecessor sums
        layer = PhaseBlock(3, (1, 1, 1, 1), 2, 3, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 2, 4, 4)), grad_rng)

    def test_phase_block_sparse_connectivity(self, grad_rng):
        # no connections, no skip: every node reads the input directly
        layer = PhaseBlock(3, (0, 0, 0, 0), 2, 2, rng=grad_rng)
        assert_gradients_match(layer, grad_rng.normal(size=(2, 2, 4, 4)), grad_rng)


class TestDtypeGrad:
    """Gradcheck under both compute dtypes with dtype-aware tolerances."""

    @pytest.mark.parametrize("label", sorted(DTYPE_GRADCHECK))
    def test_dense(self, grad_rng, label):
        dtype = resolve_dtype(label)
        layer = Dense(5, 4, rng=grad_rng, dtype=dtype)
        x = grad_rng.normal(size=(3, 5)).astype(dtype)
        assert_gradients_match(layer, x, grad_rng, **DTYPE_GRADCHECK[label])

    @pytest.mark.parametrize("label", sorted(DTYPE_GRADCHECK))
    def test_conv(self, grad_rng, label):
        dtype = resolve_dtype(label)
        layer = Conv2D(2, 3, kernel_size=3, rng=grad_rng, dtype=dtype)
        x = grad_rng.normal(size=(2, 2, 5, 5)).astype(dtype)
        assert_gradients_match(layer, x, grad_rng, **DTYPE_GRADCHECK[label])

    @pytest.mark.parametrize("label", sorted(DTYPE_GRADCHECK))
    def test_batchnorm2d(self, grad_rng, label):
        dtype = resolve_dtype(label)
        layer = BatchNorm2D(3, dtype=dtype)
        x = grad_rng.normal(size=(4, 3, 3, 3)).astype(dtype)
        assert_gradients_match(layer, x, grad_rng, **DTYPE_GRADCHECK[label])

    def test_tolerance_table_covers_all_supported_dtypes(self):
        assert set(DTYPE_GRADCHECK) == set(SUPPORTED_DTYPES)


class TestIm2ColAdjoint:
    """col2im is the exact linear adjoint of im2col.

    For every input x and column-space cotangent c the inner-product
    identity ``<im2col(x), c> == <x, col2im(c)>`` must hold — this is
    precisely the property the conv backward pass relies on when it
    routes ``dL/dcols`` back to ``dL/dx``.
    """

    CASES = [
        # (input shape, kh, kw, stride)
        ((2, 3, 6, 6), 3, 3, 1),
        ((2, 3, 7, 7), 3, 3, 2),
        ((1, 2, 5, 5), 1, 1, 1),
        ((2, 1, 8, 8), 2, 2, 2),
        ((1, 4, 9, 9), 5, 5, 2),
        ((3, 2, 6, 8), 3, 2, 1),  # rectangular kernel, rectangular image
        ((1, 1, 10, 10), 3, 3, 3),  # stride leaves uncovered border pixels
    ]

    @pytest.mark.parametrize("label", sorted(SUPPORTED_DTYPES))
    @pytest.mark.parametrize("shape,kh,kw,stride", CASES)
    def test_inner_product_identity(self, grad_rng, shape, kh, kw, stride, label):
        dtype = resolve_dtype(label)
        x = grad_rng.normal(size=shape).astype(dtype)
        cols = im2col(x, kh, kw, stride)
        c = grad_rng.normal(size=cols.shape).astype(dtype)
        back = col2im(c, x.shape, kh, kw, stride)
        assert back.dtype == dtype
        lhs = float(np.sum(cols.astype(np.float64) * c.astype(np.float64)))
        rhs = float(np.sum(x.astype(np.float64) * back.astype(np.float64)))
        rel = 1e-5 if label == "float32" else 1e-12
        assert lhs == pytest.approx(rhs, rel=rel, abs=1e-9)

    def test_col2im_scatter_adds_overlaps(self, grad_rng):
        # overlapping stride-1 windows: interior pixels are touched kh*kw
        # times, so col2im of all-ones counts each pixel's window multiplicity
        x_shape = (1, 1, 5, 5)
        cols = np.ones((1, 9, 9))  # oh*ow = 3*3 for k=3, stride=1
        back = col2im(cols, x_shape, 3, 3, 1)
        assert back[0, 0, 2, 2] == 9.0  # center sits in all 9 windows
        assert back[0, 0, 0, 0] == 1.0  # corner sits in exactly one
