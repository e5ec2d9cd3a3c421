"""The runtime write guard: trips on aliasing writes, otherwise invisible."""

import pickle

import numpy as np
import pytest

from repro.lineage.tracker import LineageTracker
from repro.nas.evaluation import TrainingEvaluator
from repro.nas.genome import random_genome
from repro.nas.population import Individual
from repro.nn import Adam, Dense, Flatten, Network, ReLU, Trainer
from repro.nn.layers.base import Layer
from repro.tooling.sanitizer import NumericalFault, WriteGuard


def dense_net(rng, size=16):
    return Network(
        [Flatten(), Dense(size * size, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)],
        input_shape=(1, size, size),
        name="guarded-net",
    )


def make_trainer(rng, tiny_dataset, **kwargs):
    net = dense_net(rng)
    trainer = Trainer(
        net,
        tiny_dataset.x_train,
        tiny_dataset.y_train,
        tiny_dataset.x_test,
        tiny_dataset.y_test,
        optimizer=Adam(net, 1e-3),
        batch_size=16,
        rng=rng,
        **kwargs,
    )
    return net, trainer


class InPlaceLayer(Layer):
    """The seeded aliasing bug: writes its borrowed input in place."""

    def forward(self, x, training=False):
        x += 1.0
        return x

    def backward(self, grad_out):
        return grad_out

    def output_shape(self, input_shape):
        return input_shape


class TestGuardTrips:
    def test_in_place_write_raises_guarded_write(self):
        net = Network([InPlaceLayer()], input_shape=(4,), name="evil")
        WriteGuard().watch(net)
        with pytest.raises(NumericalFault) as excinfo:
            net.forward(np.ones((2, 4), dtype=np.float32), training=True)
        fault = excinfo.value
        assert fault.kind == "guarded-write"
        assert fault.layer == 0
        assert fault.model == "evil"
        assert fault.detail["phase"] == "forward"

    def test_backward_writes_are_guarded_too(self):
        class GradWriter(Layer):
            def forward(self, x, training=False):
                return x

            def backward(self, grad_out):
                grad_out *= 0.5
                return grad_out

            def output_shape(self, input_shape):
                return input_shape

        net = Network([GradWriter()], input_shape=(4,), name="evil")
        WriteGuard().watch(net)
        net.forward(np.ones((2, 4), dtype=np.float32))
        with pytest.raises(NumericalFault) as excinfo:
            net.backward(np.ones((2, 4), dtype=np.float32))
        assert excinfo.value.kind == "guarded-write"
        assert excinfo.value.detail["phase"] == "backward"

    def test_fault_pickles_with_context(self):
        fault = NumericalFault(
            "guarded-write", "layer 0 wrote", model="m", epoch=2, layer=0,
            detail={"phase": "forward", "shape": [2, 4]},
        )
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.kind == "guarded-write"
        assert clone.detail == fault.detail

    def test_unrelated_value_errors_pass_through(self):
        class Broken(Layer):
            def forward(self, x, training=False):
                raise ValueError("shapes do not broadcast")

            def backward(self, grad_out):
                return grad_out

        net = Network([Broken()], input_shape=(4,))
        WriteGuard().watch(net)
        with pytest.raises(ValueError, match="broadcast"):
            net.forward(np.ones((2, 4)))


class TestGuardIsInvisibleWhenClean:
    def test_guarded_training_is_byte_identical(self, tiny_dataset):
        histories = []
        params = []
        for guard_on in (False, True):
            rng = np.random.default_rng(7)
            net, trainer = make_trainer(rng, tiny_dataset)
            if guard_on:
                guard = WriteGuard().watch(net)
                trainer.write_guard = guard
            for _ in range(3):
                trainer.train()
            histories.append([(s.train_loss, s.train_accuracy) for s in trainer.history])
            params.append({name: p.value.copy() for name, p in net.parameters()})
            if guard_on:
                assert guard.n_guarded > 0
                assert guard.epoch == 3
        assert histories[0] == histories[1]
        for name in params[0]:
            assert np.array_equal(params[0][name], params[1][name]), name

    def test_writability_is_restored_after_each_call(self):
        net = Network([Flatten()], input_shape=(2, 2))
        WriteGuard().watch(net)
        x = np.ones((1, 2, 2), dtype=np.float32)
        net.forward(x)
        assert x.flags.writeable

    def test_read_only_inputs_stay_read_only(self):
        net = Network([Flatten()], input_shape=(2, 2))
        WriteGuard().watch(net)
        x = np.ones((1, 2, 2), dtype=np.float32)
        x.flags.writeable = False
        net.forward(x)
        assert not x.flags.writeable


class TestEvaluatorIntegration:
    def evaluate(self, tiny_dataset, *, sanitize_writes, seed_rng):
        tracker = LineageTracker()
        evaluator = TrainingEvaluator(
            tiny_dataset,
            engine=None,
            max_epochs=2,
            sanitize_writes=sanitize_writes,
        )
        individual = Individual(
            genome=random_genome(seed_rng), model_id=11, generation=0
        )
        evaluator.evaluate(individual)
        tracker.observe_individual(individual)
        return individual, tracker.records[11]

    def test_seeded_lineage_identical_with_untripped_guard(self, tiny_dataset):
        ind_off, rec_off = self.evaluate(
            tiny_dataset, sanitize_writes=False, seed_rng=np.random.default_rng(3)
        )
        ind_on, rec_on = self.evaluate(
            tiny_dataset, sanitize_writes=True, seed_rng=np.random.default_rng(3)
        )
        assert ind_off.fitness == ind_on.fitness
        off, on = rec_off.to_dict(), rec_on.to_dict()
        # wall-clock fields are never stable across runs
        for doc in (off, on):
            doc.pop("engine_overhead_seconds", None)
            for epoch in doc.get("epochs", []):
                epoch.pop("epoch_seconds", None)
        assert off == on

    def test_memo_key_distinguishes_guarded_runs(self, tiny_dataset, rng):
        off = TrainingEvaluator(
            tiny_dataset, engine=None, rng_keying="genome", sanitize_writes=False
        )
        on = TrainingEvaluator(
            tiny_dataset, engine=None, rng_keying="genome", sanitize_writes=True
        )
        individual = Individual(genome=random_genome(rng), model_id=1, generation=0)
        key_off, key_on = off.memo_key(individual), on.memo_key(individual)
        assert key_off is not None and key_on is not None
        assert key_off != key_on
