"""Tests for lineage records, tracker and data commons."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.lineage import (
    DataCommons,
    EpochRecord,
    EpochTrail,
    LineageTracker,
    ModelRecord,
    RunRecord,
)
from repro.nas import Individual, NSGANet, NSGANetConfig, SurrogateEvaluator, random_genome
from repro.utils.rng import RngStream
from repro.utils.validation import ValidationError
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


def publish(commons, run, records):
    """Write a hand-built run into ``commons``: each record, then the run."""
    records = list(records)
    commons.start_run(run)
    for record in records:
        commons.write_model(run.run_id, record)
    commons.publish_run(run.run_id)


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
        run = RunRecord(run_id="r1", workflow_config={"seed": 3})
        assert RunRecord.from_dict(run.to_dict()) == run

    @pytest.mark.parametrize(
        "record",
        [ModelRecord(model_id=0, generation=0, genome={}), RunRecord(run_id="r1", workflow_config={})],
        ids=["model", "run"],
    )
    def test_a_write_outside_the_schema_raises(self, record):
        # to_dict() publishes declared fields only, so the type refuses
        # the write instead of letting the commons drop it
        with pytest.raises(AttributeError):
            record.cache_leader = 3


def epoch_entries(n=3):
    return [
        EpochRecord(epoch=e, validation_accuracy=60.0 + e, epoch_seconds=0.5 * e)
        for e in range(1, n + 1)
    ]


class TestEpochTrail:
    def test_reads_back_the_entries_it_was_given(self):
        entries = epoch_entries()
        trail = EpochTrail(entries)
        assert len(trail) == 3 and trail == entries and list(trail) == entries
        assert trail[0] == entries[0] and trail[-1] == entries[-1]
        with pytest.raises(IndexError):
            trail[3]
        assert trail.column("epoch") == [1, 2, 3]
        assert trail.column("prediction") == [None] * 3
        assert trail.to_dicts() == [entry.to_dict() for entry in entries]

    def test_a_grown_trail_equals_one_built_at_once(self):
        grown = EpochTrail()
        assert grown == [] and not grown
        for entry in epoch_entries():
            grown.append(entry)
        assert grown == EpochTrail(epoch_entries())
        assert grown == EpochTrail([e.to_dict() for e in epoch_entries()])
        grown.append(EpochRecord(epoch=1, validation_accuracy=7, prediction=9.5))
        assert grown[-1] == EpochRecord(epoch=1, validation_accuracy=7, prediction=9.5)
        assert type(grown[-1].validation_accuracy) is int
        assert list(grown)[:3] == epoch_entries()

    def test_an_entry_read_back_is_a_value(self):
        trail = EpochTrail(epoch_entries())
        with pytest.raises(dataclasses.FrozenInstanceError):
            trail[0].epoch_seconds = 9.0

    def test_fill_sets_only_the_missing_leading_values(self):
        trail = EpochTrail(
            [EpochRecord(epoch=1, validation_accuracy=1.0, epoch_seconds=4.0)]
            + [EpochRecord(epoch=e, validation_accuracy=1.0) for e in (2, 3)]
        )
        trail.fill("epoch_seconds", [7.0, 8.0])
        assert trail.column("epoch_seconds") == [4.0, 8.0, None]

    def test_a_loaded_trail_keeps_every_value_and_type(self):
        # a float field written as an int (an older document) stays an int,
        # epoch numbers that restart (a retried model) stay as they were
        payload = [
            {"epoch": e, "validation_accuracy": v, "train_accuracy": None, "train_loss": None,
             "epoch_seconds": s, "prediction": None, "checkpoint": None}
            for e, v, s in ((1, 50, 0.5), (1, 61.5, 0.25), (2, 62.5, float("inf")))
        ]
        written = EpochTrail(payload).to_dicts()
        assert written == payload
        assert [list(map(type, d.values())) for d in written] == [
            list(map(type, d.values())) for d in payload
        ]

    def test_a_loaded_trail_holds_an_epoch_in_a_few_bytes(self):
        # one EpochRecord object an entry took 88 B, plus a float or two
        payload = [e.to_dict() for e in epoch_entries(25)]
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        trails = [EpochTrail(json.loads(json.dumps(payload))) for _ in range(100)]
        per_epoch = (tracemalloc.get_traced_memory()[0] - before) / (100 * 25)
        tracemalloc.stop()
        assert len(trails) == 100 and per_epoch < 40


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
            assert record.fitness_history == list(member.result.fitness_history)
            assert record.terminated_early == member.result.terminated_early
            # epoch wall times filled from the cost model
            assert all(e.epoch_seconds is not None for e in record.epochs)

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
            assert entry.checkpoint is not None
        reloaded = load_checkpoint(tmp_path / "model_0", tag="epoch_2")
        assert reloaded.n_parameters() > 0


class TestDataCommons:
    def test_publish_and_reload(self, tmp_path):
        result, tracker = small_tracked_run()
        commons = DataCommons(tmp_path)
        run = RunRecord(run_id="test_run", workflow_config={"nas": {"population_size": 3}})
        publish(commons, run, tracker.all_records())
        assert commons.run_ids() == ["test_run"]
        assert commons.load_run("test_run") == run
        models = commons.load_models("test_run")
        assert len(models) == 6
        assert sum(m.epochs_trained for m in models) == result.total_epochs_trained
        assert models[0].fitness == tracker.records[0].fitness
        assert models == tracker.all_records()
        # one training-parameters dict for the run, as the tracker's records share
        assert len({id(m.training_parameters) for m in models}) == 1
        assert len({id(r.training_parameters) for r in tracker.all_records()}) == 1

    def test_manifest_accumulates_runs(self, tmp_path):
        _, tracker = small_tracked_run()
        commons = DataCommons(tmp_path)
        for run_id in ("a", "b"):
            publish(
                commons,
                RunRecord(run_id=run_id, workflow_config={}),
                tracker.all_records(),
            )
        assert commons.run_ids() == ["a", "b"]

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
        assert commons.load_run(second.run_id).workflow_config == second.config.to_dict()
        models = commons.load_models(second.run_id)
        assert [m.model_id for m in models] == list(range(8))
        assert [m.fitness for m in models] == [
            r.fitness for r in second.tracker.all_records()
        ]

    @pytest.mark.parametrize("run_id", ["", ".", "..", "../..", "a/b"])
    def test_run_id_that_is_not_one_directory_name_is_refused(self, tmp_path, run_id):
        # a fresh start removes runs/<run id>: '.' would be every run, '..'
        # the whole commons
        _, tracker = small_tracked_run()
        commons = DataCommons(tmp_path / "commons")
        publish(
            commons,
            RunRecord(run_id="kept", workflow_config={}),
            tracker.all_records(),
        )
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        run = RunRecord(run_id=run_id, workflow_config={})
        with pytest.raises(ValidationError, match="one plain directory name"):
            commons.start_run(run)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert commons.run_ids() == ["kept"]

    def test_models_load_in_model_id_order_past_five_digits(self, tmp_path):
        # model_100000.json sorts before model_99999.json by file name
        genome = random_genome(np.random.default_rng(0)).to_dict()
        commons = DataCommons(tmp_path)
        publish(
            commons,
            RunRecord(run_id="big", workflow_config={}),
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
        publish(
            commons,
            RunRecord(run_id="x", workflow_config={}),
            tracker.all_records(),
        )
        assert commons.size_bytes() > 0
