"""Tests for workflow configuration and the orchestrator."""

import dataclasses
from dataclasses import MISSING, fields

import pytest

from repro.analysis import compare_runs
from repro.core.engine import EngineConfig
from repro.experiments.grid import run_grid
from repro.lineage import DataCommons
from repro.nas import NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.scheduler.simulator import simulate_walltime
from repro.utils.validation import ValidationError
from repro.workflow import A4NNOrchestrator, WorkflowConfig, run_workflow
from repro.xfel import BeamIntensity, DatasetConfig


def small_config(intensity=BeamIntensity.MEDIUM, mode="surrogate", seed=5, engine=True):
    nas = NSGANetConfig(
        population_size=3, offspring_per_generation=3, generations=2, max_epochs=12
    )
    return WorkflowConfig(
        nas=nas,
        engine=EngineConfig(e_pred=12, tolerance=1.0) if engine else None,
        dataset=DatasetConfig(intensity=intensity, images_per_class=20, image_size=16),
        mode=mode,
        n_gpus=(1, 4),
        seed=seed,
    )


class TestWorkflowConfig:
    def test_defaults_are_paper_settings(self):
        config = WorkflowConfig()
        assert config.nas.total_evaluations == 100
        assert config.engine.e_pred == config.nas.max_epochs == 25

    def test_e_pred_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="e_pred"):
            WorkflowConfig(engine=EngineConfig(e_pred=30))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            WorkflowConfig(mode="imaginary")

    def test_invalid_gpus_rejected(self):
        with pytest.raises(ValidationError):
            WorkflowConfig(n_gpus=(0,))

    def test_standalone_copy(self):
        config = small_config()
        baseline = config.standalone()
        assert baseline.engine is None
        assert baseline.nas == config.nas
        assert "standalone" in baseline.resolved_run_id()

    def test_run_id_resolution(self):
        config = small_config()
        assert config.resolved_run_id() == "a4nn_surrogate_medium_seed5"
        named = WorkflowConfig(run_id="custom")
        assert named.resolved_run_id() == "custom"

    def test_dict_round_trip(self):
        config = small_config()
        rebuilt = WorkflowConfig.from_dict(config.to_dict())
        assert rebuilt.nas == config.nas
        assert rebuilt.engine == config.engine
        assert rebuilt.dataset == config.dataset
        assert rebuilt.mode == config.mode

    def test_dict_round_trip_standalone(self):
        config = small_config(engine=False)
        rebuilt = WorkflowConfig.from_dict(config.to_dict())
        assert rebuilt.engine is None

    def test_every_field_off_its_default_round_trips(self):
        # every settable value of the document, each set to something
        # other than its default: the document holds exactly the fields,
        # in their order, and loads back to an equal config
        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=4, nodes_per_phase=3, n_phases=2,
                offspring_per_generation=5, generations=3, max_epochs=9,
                crossover="point", evolution="steady", steady_lag=2,
            ),
            engine=EngineConfig(
                function="pow3", c_min=4, e_pred=9, n_predictions=4, tolerance=0.25,
                stability_metric="std", fitness_bounds=(1.0, 99.0),
            ),
            dataset=DatasetConfig(
                intensity=BeamIntensity.LOW, images_per_class=10, image_size=16,
                train_fraction=0.6, seed=7, n_atoms=100, q_max=1.0, orientation_spread=0.5,
            ),
            mode="real", n_gpus=(2,), seed=3, run_id="every-field", n_workers=2,
            backend="process", sanitize=True, sanitize_writes=True,
            faults=FaultPolicy(max_retries=1, timeout_seconds=5.0),
            fault_injection=FaultInjectionConfig(rate=0.1, modes=("crash",), hang_seconds=0.2),
            eval_cache=False,
            surrogate=SurrogateConfig(
                probe_epochs=0, min_records=4, explore_every=3, band=1.0,
                min_dominators=2, ridge=1e-2, sigma_floor=0.25,
            ),
        )
        document = config.to_dict()
        names = ("nas", "engine", "dataset", "faults", "fault_injection", "surrogate")
        for stored, section in [(document, config)] + [
            (document[name], getattr(config, name)) for name in names
        ]:
            assert list(stored) == [f.name for f in fields(section)]
            for f in fields(section):
                default = f.default_factory() if f.default is MISSING else f.default
                assert getattr(section, f.name) != default, f.name
        assert WorkflowConfig.from_dict(document) == config

    def test_sanitize_writes_round_trips_and_defaults_off(self):
        config = small_config()
        assert config.sanitize_writes is False  # legacy documents stay off
        on = WorkflowConfig.from_dict({**config.to_dict(), "sanitize_writes": True})
        assert on.sanitize_writes is True
        assert WorkflowConfig.from_dict(config.to_dict()).sanitize_writes is False


class TestOrchestrator:
    def test_surrogate_run_end_to_end(self, tmp_path):
        config = small_config()
        commons = DataCommons(tmp_path)
        result = A4NNOrchestrator(config, commons=commons).run()
        assert len(result.search.archive) == 6
        assert set(result.walltime) == {1, 4}
        assert result.walltime[4].wall_seconds < result.walltime[1].wall_seconds
        assert result.run_id in commons.run_ids()
        assert len(commons.load_models(result.run_id)) == 6
        assert 0 < result.epochs_saved_fraction() < 1

    def test_histories_populated(self):
        # the per-epoch observer trail in each lineage record carries the
        # same H and P the training loop handed back on the result
        result = A4NNOrchestrator(small_config()).run()
        records = {r.model_id: r for r in result.tracker.all_records()}
        assert len(records) == len(result.search.archive)
        for member in result.search.archive:
            epochs = records[member.model_id].epochs
            assert tuple(e.validation_accuracy for e in epochs) == member.result.fitness_history
            assert tuple(
                e.prediction for e in epochs if e.prediction is not None
            ) == member.result.prediction_history

    def test_standalone_no_engine_records(self):
        result = run_workflow(small_config().standalone())
        assert result.total_epochs_saved == 0
        record = result.tracker.all_records()[0]
        assert record.engine_parameters is None
        assert record.prediction_history == []

    def test_real_mode_end_to_end(self):
        config = small_config(mode="real", intensity=BeamIntensity.HIGH)
        result = run_workflow(config)
        assert len(result.search.archive) == 6
        for member in result.search.archive:
            assert 0 <= member.fitness <= 100
            # real wall times measured, not modeled
            assert all(s > 0 for s in member.epoch_seconds)

    def test_publish_requires_commons(self):
        orchestrator = A4NNOrchestrator(small_config())
        result = orchestrator.run()
        with pytest.raises(RuntimeError, match="without a data commons"):
            orchestrator.publish(result)


class TestComparison:
    """The paired comparison: ``compare_runs`` over the pair ``run_grid`` publishes."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        config = small_config()
        commons = DataCommons(tmp_path_factory.mktemp("pair"))
        records = run_grid(commons, [config, config.standalone()])
        return config, commons, *records.values()

    def test_paired_runs_differ_only_by_engine(self, pair):
        config, commons, a4nn, standalone = pair
        a4nn_config, standalone_config = (
            WorkflowConfig.from_dict(commons.load_run(run_id).workflow_config)
            for run_id in (config.resolved_run_id(), config.standalone().resolved_run_id())
        )
        assert a4nn_config == config and standalone_config.engine is None
        assert dataclasses.replace(standalone_config, engine=config.engine) == config
        # same initial genomes (same seed drives both searches)
        assert [r.genome for r in a4nn[:3]] == [r.genome for r in standalone[:3]]

    def test_savings_metrics(self, pair):
        config, _, a4nn, standalone = pair
        assert compare_runs(a4nn, standalone).epochs_saved_percent > 0
        nas = config.effective_nas()
        a4nn_1, a4nn_4, standalone_1 = (
            simulate_walltime(records, nas, n).wall_seconds
            for records, n in ((a4nn, 1), (a4nn, 4), (standalone, 1))
        )
        assert a4nn_1 < standalone_1
        assert a4nn_1 / a4nn_4 > 1.5


class TestParallelExecution:
    def test_n_workers_gives_same_records_as_serial(self):
        from tests.test_reproducibility import assert_reproduces

        assert_reproduces("barrier-off-clean", ("thread", 3))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(small_config(), n_workers=0)
