"""The runtime numerical sanitizer and its workflow integration."""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.nas.decoder import DecoderConfig, PhaseBlock, decode_genome
from repro.nas.evaluation import TrainingEvaluator
from repro.nas.genome import random_genome
from repro.nas.population import Individual
from repro.nas.search import NSGANetConfig
from repro.nn import Adam, Dense, Flatten, Network, ReLU, Trainer
from repro.nn.layers.base import Layer
from repro.nn.losses import Loss
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.tooling.sanitizer import NumericalFault, Sanitizer
from repro.workflow import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.dataset import DatasetConfig, load_or_generate


def dense_net(rng, size=16):
    return Network(
        [Flatten(), Dense(size * size, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)],
        input_shape=(1, size, size),
        name="sanitized-net",
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


class NaNLoss(Loss):
    def __call__(self, predictions, targets):
        return float("nan"), np.zeros_like(predictions)


class TestNumericalFault:
    def test_to_dict_round_trips_context(self):
        fault = NumericalFault(
            "nonfinite-loss",
            "loss became nan",
            model="m7",
            epoch=3,
            layer=2,
            detail={"loss": "nan"},
        )
        payload = fault.to_dict()
        assert payload == {
            "kind": "nonfinite-loss",
            "message": "loss became nan",
            "model": "m7",
            "epoch": 3,
            "layer": 2,
            "detail": {"loss": "nan"},
        }

    def test_is_a_runtime_error(self):
        assert issubclass(NumericalFault, RuntimeError)


class TestSanitizerHooks:
    def test_clean_epoch_passes_and_counts_checks(self, rng, tiny_dataset):
        net, trainer = make_trainer(rng, tiny_dataset)
        sanitizer = Sanitizer().watch(net)
        trainer.sanitizer = sanitizer
        trainer.train()
        assert sanitizer.n_checks > 0
        assert sanitizer.epoch == 1
        assert sanitizer.model == "sanitized-net"

    def test_nan_loss_raises_with_epoch_context(self, rng, tiny_dataset):
        net, trainer = make_trainer(rng, tiny_dataset, loss=NaNLoss())
        trainer.sanitizer = Sanitizer().watch(net)
        with pytest.raises(NumericalFault) as excinfo:
            trainer.train()
        assert excinfo.value.kind == "nonfinite-loss"
        assert excinfo.value.epoch == 1

    def test_nan_weight_raises_nonfinite_activation(self, rng, tiny_dataset):
        net, trainer = make_trainer(rng, tiny_dataset)
        trainer.sanitizer = Sanitizer().watch(net)
        trainer.train()  # epoch 1 is clean
        dense = net.layers[1]
        dense.params["weight"].value[0, 0] = np.nan
        with pytest.raises(NumericalFault) as excinfo:
            trainer.train()
        fault = excinfo.value
        assert fault.kind == "nonfinite-activation"
        assert fault.epoch == 2
        assert fault.layer == 1
        assert fault.detail["n_nan"] > 0

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_born_inside_a_phase_reaches_the_phase_output(self, rng, dtype, training):
        # the sanitizer sees Network-level layers only, so a NaN in a
        # conv -> bn -> relu node must survive the node to be seen at all;
        # the masked-copy ReLU turned it into 0 (`nan > 0` is false)
        net = decode_genome(
            random_genome(rng), DecoderConfig((1, 16, 16), 2, (4, 6, 8), dtype=dtype), rng=rng
        )
        phase = net.layers[0]
        assert isinstance(phase, PhaseBlock)
        phase.nodes[0][0].params["weight"].value[0, 0, 1, 1] = np.nan
        Sanitizer().watch(net)
        x = rng.normal(size=(4, 1, 16, 16)).astype(dtype)
        with pytest.raises(NumericalFault) as excinfo:
            net.forward(x, training=training)
        fault = excinfo.value
        assert fault.kind == "nonfinite-activation"
        assert fault.layer == 0
        assert fault.detail["n_nan"] > 0

    def test_nonfinite_parameter_gradient_detected(self, rng):
        net = dense_net(rng)
        sanitizer = Sanitizer().watch(net)
        next(iter(net.parameters()))[1].grad.fill(np.inf)
        with pytest.raises(NumericalFault) as excinfo:
            sanitizer.check_parameter_gradients(net)
        assert excinfo.value.kind == "nonfinite-parameter-gradient"
        assert excinfo.value.detail["n_inf"] > 0

    def test_nonfinite_backward_gradient_detected(self, rng):
        net = dense_net(rng)
        sanitizer = Sanitizer().watch(net)
        grad = np.full((4, 8), np.nan)
        with pytest.raises(NumericalFault) as excinfo:
            sanitizer.after_layer_backward(2, net.layers[2], grad)
        assert excinfo.value.kind == "nonfinite-gradient"

    def test_shape_contract_violation_detected(self, rng):
        class LyingLayer(Layer):
            def forward(self, x, training=False):
                return x[:, :1]

            def backward(self, grad_out):
                return grad_out

            def output_shape(self, input_shape):
                return input_shape  # claims identity, halves the features

        layer = LyingLayer()
        sanitizer = Sanitizer(model="liar")
        x_in = np.ones((2, 4))
        x_out = layer.forward(x_in)
        with pytest.raises(NumericalFault) as excinfo:
            sanitizer.after_layer_forward(0, layer, x_in, x_out)
        fault = excinfo.value
        assert fault.kind == "shape-mismatch"
        assert fault.detail == {"expected": [4], "actual": [1]}

    def test_shape_check_can_be_disabled(self, rng):
        sanitizer = Sanitizer(check_shapes=False)

        class Opaque:
            def output_shape(self, input_shape):
                raise AssertionError("must not be consulted")

        sanitizer.after_layer_forward(0, Opaque(), np.ones((2, 4)), np.ones((2, 1)))
        assert sanitizer.n_checks == 1

    def test_detached_network_pays_no_sanitizer_cost(self, rng, tiny_dataset):
        net, trainer = make_trainer(rng, tiny_dataset)
        assert net.sanitizer is None and trainer.sanitizer is None
        trainer.train()  # runs the fast path


def poisoned(config):
    """The configured dataset with every training image NaN."""
    dataset = load_or_generate(config)
    return dataclasses.replace(dataset, x_train=np.full_like(dataset.x_train, np.nan))


def sanitized_run(backend, n_workers):
    """Every attempt diverges: the sanitizer trips on the poisoned images,
    or injection raises a NaN first; the second numerical fault quarantines."""
    config = WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4, offspring_per_generation=4, generations=1, max_epochs=2
        ),
        engine=EngineConfig(e_pred=2),
        dataset=DatasetConfig(images_per_class=8, image_size=12),
        mode="real",
        n_gpus=(1,),
        seed=0,  # models 0 and 3 end on an injected NaN, 1 and 2 on the sanitizer
        backend=backend,
        n_workers=n_workers,
        sanitize=True,
        faults=FaultPolicy(max_retries=1, retry_numerical=True),
        fault_injection=FaultInjectionConfig(rate=0.5, modes=("nan",)),
    )
    return A4NNOrchestrator(config).run().tracker.all_records()


class TestWorkflowIntegration:
    """Acceptance: a NaN under ``sanitize=True`` aborts the attempt, lands
    in the model's lineage record at commit, and never pollutes fitness
    history H — on both backends."""

    def test_fault_recorded_in_lineage_not_fitness_history(self, monkeypatch):
        monkeypatch.setattr("repro.workflow.orchestrator.load_or_generate", poisoned)
        records = sanitized_run("thread", 1)
        assert [r.to_dict() for r in sanitized_run("process", 2)] == [
            r.to_dict() for r in records
        ]
        for record in records:
            assert record.quarantined
            assert record.fitness_history == [] and record.epochs == []
            assert [e["kind"] for e in record.fault_events] == ["numerical"] * 2
            # the record's fault is the last attempt's, whoever raised it
            assert record.fault == record.fault_events[-1]["detail"]
        faults = [r.fault for r in records]
        assert any(f["kind"] == "nonfinite-activation" for f in faults)
        assert any(f["detail"] == {"injected": True} for f in faults)

    def test_sanitize_off_keeps_legacy_behaviour(self, rng, tiny_dataset):
        evaluator = TrainingEvaluator(
            tiny_dataset, engine=None, max_epochs=1, sanitize=False
        )
        individual = Individual(genome=random_genome(rng), model_id=3, generation=0)
        evaluator.evaluate(individual)
        assert individual.result is not None
        assert individual.fitness >= 0.0
