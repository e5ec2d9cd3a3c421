"""Tests for Network, losses, optimizers, metrics, and FLOP accounting."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MeanSquaredError,
    Network,
    ReLU,
    SoftmaxCrossEntropy,
    accuracy,
    accuracy_percent,
    log_softmax,
    network_flops,
)


def tiny_net(rng, input_shape=(1, 8, 8)):
    return Network(
        [
            Conv2D(1, 2, 3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(2 * 4 * 4, 3, rng=rng),
        ],
        input_shape=input_shape,
    )


class TestNetwork:
    def test_forward_shape(self, rng):
        net = tiny_net(rng)
        out = net.forward(rng.normal(size=(5, 1, 8, 8)))
        assert out.shape == (5, 3)

    def test_layer_shapes_chain(self, rng):
        net = tiny_net(rng)
        assert net.layer_shapes() == [(2, 8, 8), (2, 8, 8), (2, 4, 4), (32,), (3,)]
        assert net.output_shape() == (3,)

    def test_predict_batched_matches_single_pass(self, rng):
        net = tiny_net(rng)
        x = rng.normal(size=(10, 1, 8, 8))
        np.testing.assert_allclose(net.predict(x, batch_size=3), net.forward(x))

    def test_parameter_names_unique(self, rng):
        names = [name for name, _ in tiny_net(rng).parameters()]
        assert len(names) == len(set(names))

    def test_zero_grad_clears(self, rng):
        net = tiny_net(rng)
        x = rng.normal(size=(2, 1, 8, 8))
        out = net.forward(x, training=True)
        net.backward(np.ones_like(out))
        assert any(np.abs(p.grad).sum() > 0 for _, p in net.parameters())
        net.zero_grad()
        assert all(np.abs(p.grad).sum() == 0 for _, p in net.parameters())

    def test_summary_mentions_totals(self, rng):
        summary = tiny_net(rng).summary()
        assert "total params" in summary and "flops" in summary

    def test_introspection_requires_input_shape(self, rng):
        net = Network([Dense(4, 2, rng=rng)])
        with pytest.raises(RuntimeError, match="input_shape"):
            net.layer_shapes()


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = np.exp(log_softmax(rng.normal(size=(6, 4))))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6))

    def test_stable_for_huge_logits(self):
        logp = log_softmax(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        assert np.all(np.isfinite(logp))
        np.testing.assert_allclose(logp[:, 0], [0.0, 0.0], atol=1e-12)

    def test_log_softmax_consistent(self, rng):
        logits = rng.normal(size=(3, 5))
        naive = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(log_softmax(logits), naive)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        value, _ = loss(logits, np.array([0, 1]))
        assert value < 1e-6

    def test_uniform_prediction_log_n(self):
        loss = SoftmaxCrossEntropy()
        value, _ = loss(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert value == pytest.approx(np.log(3))

    def test_gradient_matches_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 4))
        targets = np.array([1, 3, 0])
        _, grad = loss(logits, targets)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                up = logits.copy()
                up[i, j] += eps
                down = logits.copy()
                down[i, j] -= eps
                numeric = (loss(up, targets)[0] - loss(down, targets)[0]) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-6)

    def test_rejects_bad_labels(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError, match="labels"):
            loss(np.zeros((2, 3)), np.array([0, 3]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy()(np.zeros((2, 3)), np.array([0, 1, 0]))


class TestMSE:
    def test_zero_for_identical(self, rng):
        x = rng.normal(size=(3, 4))
        value, grad = MeanSquaredError()(x, x.copy())
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_gradient_direction(self):
        value, grad = MeanSquaredError()(np.array([[2.0]]), np.array([[1.0]]))
        assert value == pytest.approx(1.0)
        assert grad[0, 0] == pytest.approx(2.0)


class TestOptimizers:
    def _quadratic_step(self, optimizer_cls, **kwargs):
        """Minimize ||W||^2 via repeated steps; weight norm must shrink."""
        rng = np.random.default_rng(0)
        net = Network([Dense(4, 4, use_bias=False, rng=rng)])
        opt = optimizer_cls(net, **kwargs)
        w = net.layers[0].params["weight"]
        initial = float(np.linalg.norm(w.value))
        for _ in range(50):
            opt.zero_grad()
            w.grad += 2 * w.value  # d||W||^2/dW
            opt.step()
        return initial, float(np.linalg.norm(w.value))

    def test_adam_descends(self):
        initial, final = self._quadratic_step(Adam, lr=0.05)
        assert final < 0.5 * initial

    def test_weight_decay_shrinks_weights(self, rng):
        net = Network([Dense(3, 3, use_bias=False, rng=rng)])
        opt = Adam(net, lr=0.01, weight_decay=0.5)
        w = net.layers[0].params["weight"]
        before = np.abs(w.value).sum()
        opt.step()  # zero gradient, only decay acts
        assert np.abs(w.value).sum() < before

    def test_invalid_hyperparameters(self, rng):
        net = Network([Dense(2, 2, rng=rng)])
        with pytest.raises(Exception):
            Adam(net, lr=-0.1)
        with pytest.raises(ValueError):
            Adam(net, lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(net, lr=0.1, beta2=1.0)
        with pytest.raises(Exception):
            Adam(net, lr=0.1, weight_decay=-1.0)


class TestMetrics:
    def test_accuracy_from_logits_and_labels(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        targets = np.array([0, 1, 1])
        assert accuracy(logits, targets) == pytest.approx(2 / 3)
        assert accuracy_percent(logits, targets) == pytest.approx(100 * 2 / 3)

    def test_accuracy_from_hard_labels(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestFlops:
    def test_dense_flops_formula(self, rng):
        net = Network([Dense(10, 5, rng=rng)], input_shape=(10,))
        assert network_flops(net) == 2 * 10 * 5 + 5

    def test_conv_flops_formula(self, rng):
        net = Network(
            [Conv2D(2, 4, kernel_size=3, use_bias=False, rng=rng)],
            input_shape=(2, 8, 8),
        )
        # 2*k*k*cin per output element * cout * oh * ow
        assert network_flops(net) == 2 * 9 * 2 * 4 * 8 * 8

    def test_flops_monotone_in_width(self, rng):
        narrow = Network([Dense(10, 5, rng=rng)], input_shape=(10,))
        wide = Network([Dense(10, 50, rng=rng)], input_shape=(10,))
        assert network_flops(wide) > network_flops(narrow)
