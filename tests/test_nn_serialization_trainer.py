"""Tests for checkpointing and the epoch-wise trainer."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    Trainer,
    architecture_config,
    load_checkpoint,
    load_state_dict,
    network_from_config,
    save_checkpoint,
    state_dict,
)


def bn_net(rng, size=8):
    return Network(
        [
            Conv2D(1, 2, 3, rng=rng),
            BatchNorm2D(2),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(2 * (size // 2) ** 2, 2, rng=rng),
        ],
        input_shape=(1, size, size),
        name="bn-net",
    )


class TestArchitectureConfig:
    def test_round_trip_structure(self, rng):
        net = bn_net(rng)
        rebuilt = network_from_config(architecture_config(net))
        assert [type(l).__name__ for l in rebuilt.layers] == [
            type(l).__name__ for l in net.layers
        ]
        assert rebuilt.input_shape == net.input_shape
        assert rebuilt.name == net.name

    def test_unknown_layer_type_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            network_from_config(
                {"name": "x", "input_shape": None, "layers": [{"type": "Nope", "config": {}}]}
            )


class TestStateDict:
    def test_includes_params_and_bn_state(self, rng):
        net = bn_net(rng)
        state = state_dict(net)
        assert "0.weight" in state and "1.gamma" in state
        assert "1.running_mean" in state and "1.running_var" in state

    def test_strict_load_missing_key(self, rng):
        net = bn_net(rng)
        state = state_dict(net)
        state.pop("0.weight")
        with pytest.raises(KeyError, match="0.weight"):
            load_state_dict(bn_net(rng), state)

    def test_strict_load_extra_key(self, rng):
        net = bn_net(rng)
        state = state_dict(net)
        state["ghost"] = np.zeros(3)
        with pytest.raises(KeyError, match="unused"):
            load_state_dict(bn_net(rng), state)

    def test_shape_mismatch_rejected(self, rng):
        net = bn_net(rng)
        state = state_dict(net)
        state["0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state_dict(bn_net(rng), state)


class TestCheckpointRoundTrip:
    def test_predictions_identical_after_reload(self, rng, tmp_path):
        net = bn_net(rng)
        # give batch-norm non-trivial running stats
        x = rng.normal(size=(16, 1, 8, 8))
        net.forward(x, training=True)
        save_checkpoint(net, tmp_path, tag="e1")
        reloaded = load_checkpoint(tmp_path, tag="e1")
        np.testing.assert_allclose(reloaded.predict(x), net.predict(x), atol=1e-12)

    def test_checkpoint_paths_returned(self, rng, tmp_path):
        paths = save_checkpoint(bn_net(rng), tmp_path, tag="t")
        assert paths["architecture"].endswith("t.arch.json")
        assert paths["state"].endswith("t.state.npz")


class TestTrainer:
    def test_learns_separable_problem(self, rng):
        # two Gaussian blobs rendered as images
        n = 40
        x = rng.normal(size=(2 * n, 1, 8, 8)) * 0.1
        x[:n, :, :4, :] += 1.0
        x[n:, :, 4:, :] += 1.0
        y = np.array([0] * n + [1] * n)
        net = bn_net(rng)
        trainer = Trainer(net, x, y, x, y, optimizer=Adam(net, 1e-2), batch_size=8, rng=rng)
        for _ in range(6):
            stats = trainer.train()
        assert trainer.validate() > 90.0
        assert stats.epoch == 6
        assert stats.wall_seconds > 0

    def test_epoch_counter_and_history(self, rng, tiny_dataset):
        net = bn_net(rng, size=16)
        trainer = Trainer(
            net,
            tiny_dataset.x_train,
            tiny_dataset.y_train,
            tiny_dataset.x_test,
            tiny_dataset.y_test,
            optimizer=Adam(net, 1e-3),
            rng=rng,
        )
        assert trainer.epoch == 0
        trainer.train()
        trainer.train()
        assert trainer.epoch == 2
        assert len(trainer.history) == 2

    def test_validate_returns_percent(self, rng, tiny_dataset):
        net = bn_net(rng, size=16)
        trainer = Trainer(
            net,
            tiny_dataset.x_train,
            tiny_dataset.y_train,
            tiny_dataset.x_test,
            tiny_dataset.y_test,
            optimizer=Adam(net, 1e-3),
            rng=rng,
        )
        fitness = trainer.validate()
        assert 0.0 <= fitness <= 100.0

    def test_rejects_mismatched_splits(self, rng, tiny_dataset):
        net = bn_net(rng)
        with pytest.raises(ValueError, match="train split mismatch"):
            Trainer(
                net,
                tiny_dataset.x_train,
                tiny_dataset.y_train[:-1],
                tiny_dataset.x_test,
                tiny_dataset.y_test,
                optimizer=Adam(net, 1e-3),
            )

    def test_rejects_empty_split(self, rng, tiny_dataset):
        net = bn_net(rng)
        with pytest.raises(ValueError, match="non-empty"):
            Trainer(
                net,
                tiny_dataset.x_train[:0],
                tiny_dataset.y_train[:0],
                tiny_dataset.x_test,
                tiny_dataset.y_test,
                optimizer=Adam(net, 1e-3),
            )

    def test_deterministic_given_rng(self, tiny_dataset):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            net = bn_net(np.random.default_rng(7), size=16)
            trainer = Trainer(
                net,
                tiny_dataset.x_train,
                tiny_dataset.y_train,
                tiny_dataset.x_test,
                tiny_dataset.y_test,
                optimizer=Adam(net, 1e-3),
                rng=rng,
            )
            trainer.train()
            results.append(trainer.validate())
        assert results[0] == results[1]
