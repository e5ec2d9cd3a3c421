"""Behavioural tests for individual layers (shapes, modes, errors)."""

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    Sigmoid,
    col2im,
    im2col,
)


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(8, 3, rng=rng)
        assert layer.forward(rng.normal(size=(5, 8))).shape == (5, 3)
        assert layer.output_shape((8,)) == (3,)

    def test_rejects_wrong_width(self, rng):
        layer = Dense(8, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 7)))
        with pytest.raises(ValueError):
            layer.output_shape((7,))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(4, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(rng.normal(size=(3, 2)))

    def test_eval_forward_does_not_cache(self, rng):
        layer = Dense(4, 2, rng=rng)
        layer.forward(rng.normal(size=(3, 4)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(rng.normal(size=(3, 2)))

    def test_parameter_count(self, rng):
        assert Dense(4, 3, rng=rng).n_parameters() == 4 * 3 + 3
        assert Dense(4, 3, use_bias=False, rng=rng).n_parameters() == 12


class TestConv2D:
    def test_same_padding_preserves_spatial(self, rng):
        layer = Conv2D(2, 4, kernel_size=3, rng=rng)
        out = layer.forward(rng.normal(size=(3, 2, 8, 8)))
        assert out.shape == (3, 4, 8, 8)

    def test_stride_halves(self, rng):
        layer = Conv2D(1, 2, kernel_size=3, stride=2, padding=1, rng=rng)
        assert layer.output_shape((1, 8, 8)) == (2, 4, 4)

    def test_matches_naive_convolution(self, rng):
        layer = Conv2D(1, 1, kernel_size=3, padding=0, use_bias=False, rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))
        kernel = layer.params["weight"].value[0, 0]
        out = layer.forward(x)
        naive = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                naive[i, j] = np.sum(x[0, 0, i : i + 3, j : j + 3] * kernel)
        np.testing.assert_allclose(out[0, 0], naive, atol=1e-12)

    def test_empty_output_rejected(self, rng):
        layer = Conv2D(1, 1, kernel_size=5, padding=0, rng=rng)
        with pytest.raises(ValueError, match="empty output"):
            layer.output_shape((1, 3, 3))

    def test_wrong_channels_rejected(self, rng):
        layer = Conv2D(2, 1, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 3, 8, 8)))

    def test_same_padding_even_kernel_preserves_spatial(self, rng):
        # even kernels need asymmetric ((k-1)//2, k//2) padding; the old
        # symmetric k//2 padding grew the output by one in each dim
        for k in (2, 4):
            layer = Conv2D(1, 1, kernel_size=k, rng=rng)
            assert layer.output_shape((1, 8, 8)) == (1, 8, 8)
            out = layer.forward(rng.normal(size=(2, 1, 8, 8)))
            assert out.shape == (2, 1, 8, 8)

    def test_same_padding_rejects_stride(self, rng):
        with pytest.raises(ValueError, match="undefined for stride"):
            Conv2D(1, 1, kernel_size=3, stride=2, padding="same", rng=rng)

    def test_unknown_padding_mode_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown padding mode"):
            Conv2D(1, 1, padding="valid", rng=rng)

    def test_tuple_padding_and_config_roundtrip(self, rng):
        layer = Conv2D(1, 1, kernel_size=4, padding=(1, 2), rng=rng)
        assert layer.output_shape((1, 8, 8)) == (1, 8, 8)
        config = layer.get_config()
        assert config["padding"] == [1, 2]
        rebuilt = Conv2D(**{**config, "padding": tuple(config["padding"])}, rng=rng)
        assert rebuilt.output_shape((1, 8, 8)) == (1, 8, 8)

    def test_asymmetric_padding_gradient(self, rng):
        # numeric gradcheck through the asymmetric 'same' path
        layer = Conv2D(1, 1, kernel_size=2, use_bias=False, rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))
        out = layer.forward(x, training=True)
        grad_out = rng.normal(size=out.shape)
        grad_x = layer.backward(grad_out)
        assert grad_x.shape == x.shape
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 0, 2, 3), (0, 0, 4, 4)]:
            x_plus, x_minus = x.copy(), x.copy()
            x_plus[idx] += eps
            x_minus[idx] -= eps
            numeric = (
                np.sum(layer.forward(x_plus) * grad_out)
                - np.sum(layer.forward(x_minus) * grad_out)
            ) / (2 * eps)
            assert grad_x[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_im2col_col2im_adjoint(self, rng):
        # <im2col(x), y> == <x, col2im(y)> (adjointness)
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, 3, 3, 1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, 3, 3, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = AvgPool2D(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_global_avgpool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = GlobalAvgPool2D().forward(x)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))

    def test_maxpool_gradient_routing(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer = MaxPool2D(2)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[i, j] = 1.0
        np.testing.assert_array_equal(grad[0, 0], expected)

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        layer = BatchNorm2D(3)
        x = rng.normal(loc=5.0, scale=3.0, size=(16, 3, 4, 4))
        out = layer.forward(x, training=True)
        assert abs(out.mean()) < 1e-8
        assert out.std() == pytest.approx(1.0, abs=0.01)

    def test_running_stats_track_batches(self, rng):
        layer = BatchNorm2D(2, momentum=0.5)
        x = rng.normal(loc=2.0, size=(32, 2, 3, 3))
        for _ in range(20):
            layer.forward(x, training=True)
        assert layer.running_mean == pytest.approx(x.mean(axis=(0, 2, 3)), abs=0.05)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2D(2)
        x = rng.normal(size=(8, 2, 3, 3))
        out_before = layer.forward(x, training=False)
        # fresh running stats are (0, 1): eval output ~= gamma*x + beta = x
        np.testing.assert_allclose(out_before, x, atol=1e-2)

    def test_state_round_trip(self, rng):
        layer = BatchNorm2D(3)
        layer.forward(rng.normal(size=(8, 3, 2, 2)), training=True)
        state = layer.state()
        fresh = BatchNorm2D(3)
        fresh.load_state(state)
        np.testing.assert_array_equal(fresh.running_mean, layer.running_mean)
        np.testing.assert_array_equal(fresh.running_var, layer.running_var)

    def test_load_state_validates(self):
        layer = BatchNorm2D(3)
        with pytest.raises(KeyError):
            layer.load_state({"running_mean": np.zeros(3)})
        with pytest.raises(ValueError):
            layer.load_state(
                {"running_mean": np.zeros(2), "running_var": np.ones(2)}
            )


class TestElementwise:
    def test_relu_clamps(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_sigmoid_stable_at_extremes(self):
        out = Sigmoid().forward(np.array([[-1000.0, 0.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-12)

    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)
