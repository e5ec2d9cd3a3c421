"""Tests for lineage records, tracker and data commons."""

import json

import numpy as np
import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.lineage import (
    DataCommons,
    EpochRecord,
    LineageTracker,
    ModelRecord,
    RunRecord,
)
from repro.nas import Individual, NSGANet, NSGANetConfig, SurrogateEvaluator, random_genome
from repro.utils.rng import RngStream
from repro.xfel import BeamIntensity


def small_tracked_run(seed=0, intensity=BeamIntensity.MEDIUM):
    """Run a tiny surrogate search with full lineage tracking."""
    engine = PredictionEngine(EngineConfig(e_pred=8))
    tracker = LineageTracker(
        engine_parameters=engine.describe(),
        training_parameters={"mode": "surrogate"},
    )
    evaluator = SurrogateEvaluator(
        intensity,
        engine,
        max_epochs=8,
        rng_stream=RngStream(seed),
    )
    config = NSGANetConfig(
        population_size=3, offspring_per_generation=3, generations=2, max_epochs=8
    )
    search = NSGANet(
        config,
        evaluator,
        rng_stream=RngStream(seed),
        on_individual=tracker.observe_individual,
    )
    return search.run(), tracker


class TestRecords:
    def test_epoch_record_round_trip(self):
        record = EpochRecord(epoch=3, validation_accuracy=88.5, prediction=92.0)
        assert EpochRecord.from_dict(record.to_dict()) == record

    def test_model_record_round_trip(self, rng):
        record = ModelRecord(
            model_id=4,
            generation=1,
            genome=random_genome(rng).to_dict(),
            fitness=95.0,
            epochs_trained=10,
            max_epochs=25,
        )
        rebuilt = ModelRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt.model_id == 4
        assert rebuilt.epochs_saved == 15

    def test_run_record_round_trip(self):
        run = RunRecord(run_id="r1", intensity="low", nas_parameters={}, engine_parameters=None)
        assert RunRecord.from_dict(run.to_dict()).run_id == "r1"


class TestTracker:
    def test_records_every_model(self):
        result, tracker = small_tracked_run()
        records = tracker.all_records()
        assert len(records) == len(result.archive) == 6
        assert [r.model_id for r in records] == sorted(r.model_id for r in records)

    def test_epoch_trail_complete(self):
        result, tracker = small_tracked_run()
        for member in result.archive:
            record = tracker.records[member.model_id]
            assert len(record.epochs) == member.result.epochs_trained
            assert record.fitness == member.fitness
            assert record.fitness_history == member.result.fitness_history
            assert record.terminated_early == member.result.terminated_early
            # epoch wall times filled from the cost model
            assert all(e["epoch_seconds"] is not None for e in record.epochs)

    def test_engine_parameters_recorded(self):
        _, tracker = small_tracked_run()
        record = tracker.all_records()[0]
        assert record.engine_parameters["function"] == "exp3"
        assert record.training_parameters["mode"] == "surrogate"

    def test_real_mode_checkpoints_written(self, tmp_path, tiny_dataset):
        from repro.nas import TrainingEvaluator
        from repro.nas.decoder import DecoderConfig
        from repro.nn import load_checkpoint

        tracker = LineageTracker()
        evaluator = TrainingEvaluator(
            tiny_dataset,
            None,
            max_epochs=2,
            decoder_config=DecoderConfig(tiny_dataset.input_shape, 2, (2, 3, 4)),
            rng_stream=RngStream(0),
            checkpoint_dir=tmp_path,
        )
        individual = Individual(random_genome(np.random.default_rng(0)), 0, 0)
        evaluator.evaluate(individual)
        tracker.observe_individual(individual)
        record = tracker.records[0]
        assert len(record.epochs) == 2
        # every epoch checkpoint is loadable
        for entry in record.epochs:
            assert entry["checkpoint"] is not None
        reloaded = load_checkpoint(tmp_path / "model_0", tag="epoch_2")
        assert reloaded.n_parameters() > 0


class TestDataCommons:
    def test_publish_and_reload(self, tmp_path):
        result, tracker = small_tracked_run()
        commons = DataCommons(tmp_path)
        run = RunRecord(
            run_id="test_run",
            intensity="medium",
            nas_parameters={"population_size": 3},
            engine_parameters={"function": "exp3"},
        )
        commons.publish_run(run, tracker)
        assert commons.run_ids() == ["test_run"]
        loaded_run = commons.load_run("test_run")
        assert loaded_run.n_models == 6
        assert loaded_run.total_epochs_trained == result.total_epochs_trained
        models = commons.load_models("test_run")
        assert len(models) == 6
        assert models[0].fitness == tracker.records[0].fitness

    def test_manifest_accumulates_runs(self, tmp_path):
        _, tracker = small_tracked_run()
        commons = DataCommons(tmp_path)
        for run_id in ("a", "b"):
            commons.publish_run(
                RunRecord(run_id=run_id, intensity="low", nas_parameters={}, engine_parameters=None),
                tracker,
            )
        assert commons.run_ids() == ["a", "b"]

    def test_iter_all_models(self, tmp_path):
        _, tracker = small_tracked_run()
        commons = DataCommons(tmp_path)
        commons.publish_run(
            RunRecord(run_id="x", intensity="low", nas_parameters={}, engine_parameters=None),
            tracker,
        )
        entries = list(commons.iter_all_models())
        assert len(entries) == 6
        assert all(run_id == "x" for run_id, _ in entries)

    def test_republished_run_id_drops_the_earlier_trails(self, tmp_path):
        # the run id ignores the NAS settings, so a smaller search with the
        # same seed, mode and intensity replaces a larger one's publish
        from repro.workflow import WorkflowConfig, run_workflow

        def search(population, generations):
            return WorkflowConfig(
                nas=NSGANetConfig(
                    population_size=population,
                    offspring_per_generation=population,
                    generations=generations,
                    max_epochs=8,
                ),
                engine=EngineConfig(e_pred=8),
                seed=5,
            )

        first = run_workflow(search(6, 3), commons_path=tmp_path)
        second = run_workflow(search(4, 2), commons_path=tmp_path)
        assert first.run_id == second.run_id
        commons = DataCommons(tmp_path)
        assert commons.load_run(second.run_id).n_models == 8
        models = commons.load_models(second.run_id)
        assert [m.model_id for m in models] == list(range(8))
        assert [m.fitness for m in models] == [
            r.fitness for r in second.tracker.all_records()
        ]

    def test_models_load_in_model_id_order_past_five_digits(self, tmp_path):
        # model_100000.json sorts before model_99999.json by file name
        genome = random_genome(np.random.default_rng(0)).to_dict()
        commons = DataCommons(tmp_path)
        commons.publish_run(
            RunRecord(run_id="big", intensity="low", nas_parameters={}, engine_parameters=None),
            [ModelRecord(model_id=i, generation=0, genome=genome) for i in (99999, 100000)],
        )
        assert [m.model_id for m in commons.load_models("big")] == [99999, 100000]

    def test_missing_run_raises(self, tmp_path):
        commons = DataCommons(tmp_path)
        with pytest.raises(FileNotFoundError):
            commons.load_models("nope")

    def test_size_bytes_positive(self, tmp_path):
        _, tracker = small_tracked_run()
        commons = DataCommons(tmp_path)
        commons.publish_run(
            RunRecord(run_id="x", intensity="low", nas_parameters={}, engine_parameters=None),
            tracker,
        )
        assert commons.size_bytes() > 0
