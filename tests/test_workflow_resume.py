"""Tests for resuming interrupted searches from the commons."""

import dataclasses
import shutil
from pathlib import Path

import pytest

from repro.lineage import DataCommons
from repro.nas.genome import Genome
from repro.nas.population import Individual
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SurrogateEvaluator
from repro.scheduler.faults import FaultPolicy
from repro.utils.io import atomic_write_json, read_json
from repro.workflow import (
    individual_from_record,
    rebuild_search_state,
    resume_workflow,
    run_workflow,
)
from repro.workflow.interfaces import WorkflowConfig

from tests.test_workflow import small_config


def steady_config(seed=31, lag=3):
    config = small_config(seed=seed)
    return dataclasses.replace(
        config,
        nas=dataclasses.replace(config.nas, evolution="steady", steady_lag=lag),
    )


def publish_tick_prefix(tmp_path, *, keep_ticks, seed=31):
    """Publish a steady run, then delete all records past a tick prefix."""
    config = steady_config(seed=seed)
    result = run_workflow(config, commons_path=tmp_path)
    commons = DataCommons(tmp_path)
    run_id = result.run_id
    for record in commons.load_models(run_id):
        if record.model_id >= keep_ticks:
            (
                commons.root
                / "runs"
                / run_id
                / "models"
                / f"model_{record.model_id:05d}.json"
            ).unlink()
    return commons, run_id, result


def publish_truncated(tmp_path, *, keep_generations, seed=31):
    """Publish a run, then delete the records of later generations."""
    config = small_config(seed=seed)
    result = run_workflow(config, commons_path=tmp_path)
    commons = DataCommons(tmp_path)
    run_id = result.run_id
    for record in commons.load_models(run_id):
        if record.generation >= keep_generations:
            path = (
                commons.root
                / "runs"
                / run_id
                / "models"
                / f"model_{record.model_id:05d}.json"
            )
            path.unlink()
    return commons, run_id, result


def trails(records):
    """Record trails as published, less the engine's wall-clock overhead."""
    out = [r.to_dict() for r in sorted(records, key=lambda r: r.model_id)]
    for trail in out:
        trail["engine_overhead_seconds"] = None
    return out


def assert_resumes_to(commons, run_id, full):
    resumed = resume_workflow(commons, run_id)
    assert trails(resumed.tracker.all_records()) == trails(full.tracker.all_records())
    assert trails(commons.load_models(run_id)) == trails(full.tracker.all_records())
    assert resumed.search.generations == full.search.generations
    return resumed


def probe_config(seed, *, evolution="steady", steady_lag=None, faults=None):
    """A 24-model engine-less search on 3-node phases, where duplicates are common."""
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=6,
            nodes_per_phase=3,
            max_epochs=6,
            evolution=evolution,
            steady_lag=steady_lag,
        ),
        engine=None,
        mode="surrogate",
        n_gpus=(1,),
        seed=seed,
        faults=faults,
        run_id="probe",
    )


def cut_at(commons, run_id, model_id):
    """Delete every model file from ``model_id`` on."""
    for path in (commons.root / "runs" / run_id / "models").glob("model_*.json"):
        if int(path.stem.split("_")[1]) >= model_id:
            path.unlink()


def bred_from(record):
    """The candidate a search breeds at ``record``'s model id, before evaluation."""
    return Individual(Genome.from_dict(record.genome), record.model_id, record.generation)


class TestIndividualFromRecord:
    def test_round_trip_through_records(self, tmp_path):
        commons, run_id, result = publish_truncated(tmp_path, keep_generations=2)
        record = commons.load_models(run_id)[0]
        individual = individual_from_record(record, bred_from(record))
        original = result.search.archive[0]
        assert individual.fitness == original.fitness
        assert individual.flops == original.flops
        assert individual.genome == original.genome
        assert individual.result.epochs_trained == original.result.epochs_trained
        assert individual.result.epochs_saved == original.result.epochs_saved
        assert individual.epoch_seconds == pytest.approx(original.epoch_seconds)

    def test_incomplete_record_rejected(self, tmp_path):
        from repro.lineage.records import ModelRecord
        from repro.nas import random_genome
        import numpy as np

        record = ModelRecord(
            model_id=0, generation=0, genome=random_genome(np.random.default_rng(0)).to_dict()
        )
        with pytest.raises(ValueError, match="incomplete"):
            individual_from_record(record, bred_from(record))


class TestRebuildState:
    """Barrier prefix rule: whole generations from generation 0."""

    def test_state_covers_complete_generations(self, tmp_path):
        commons, run_id, full = publish_truncated(tmp_path, keep_generations=1)
        prefix = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
        )
        assert [r.model_id for r in prefix] == [0, 1, 2]
        assert_resumes_to(commons, run_id, full)

    def test_partial_generation_dropped(self, tmp_path):
        commons, run_id, full = publish_truncated(tmp_path, keep_generations=2)
        # remove the last model of generation 1: models 0..4 are still
        # contiguous, but generation 1 is incomplete and is redone whole
        (commons.root / "runs" / run_id / "models" / "model_00005.json").unlink()
        prefix = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
        )
        assert [r.model_id for r in prefix] == [0, 1, 2]
        assert_resumes_to(commons, run_id, full)

    def test_missing_initial_generation_rejected(self):
        with pytest.raises(ValueError, match="initial generation"):
            rebuild_search_state([], population_size=3, offspring_per_generation=3)


class TestResumeWorkflow:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        commons, run_id, full = publish_truncated(tmp_path, keep_generations=1, seed=33)
        resumed = resume_workflow(commons, run_id)

        assert len(resumed.search.archive) == len(full.search.archive)
        for a, b in zip(resumed.search.archive, full.search.archive):
            assert a.model_id == b.model_id
            assert a.genome == b.genome
            assert a.fitness == b.fitness
            assert a.result.epochs_trained == b.result.epochs_trained
        # republished commons is complete again
        assert len(commons.load_models(run_id)) == len(full.search.archive)

    def test_resume_verifies_against_replay(self, tmp_path):
        from repro.lineage import verify_run

        commons, run_id, _ = publish_truncated(tmp_path, keep_generations=1, seed=35)
        resume_workflow(commons, run_id)
        report = verify_run(commons, run_id)
        assert report.matches, report.summary()

    def test_stored_serial_backend_resumes_on_threads(self, tmp_path):
        # "serial" (a one-worker thread pool) is gone; lineage never
        # depended on the backend, so a commons that stored it resumes
        commons, run_id, full = publish_truncated(tmp_path, keep_generations=1, seed=33)
        run_path = commons.root / "runs" / run_id / "run.json"
        document = read_json(run_path)
        document["workflow_config"]["backend"] = "serial"
        atomic_write_json(run_path, document)

        resumed = resume_workflow(commons, run_id)

        assert commons.load_run(run_id).workflow_config["backend"] == "thread"
        expected = [r.to_dict() for r in full.tracker.all_records()]
        republished = [r.to_dict() for r in commons.load_models(run_id)]
        for trails in (expected, republished):
            for trail in trails:
                trail["engine_overhead_seconds"] = None
        assert republished == expected
        assert len(resumed.search.archive) == len(full.search.archive)

    def test_resume_requires_stored_config(self, tmp_path):
        from repro.lineage.records import RunRecord

        commons = DataCommons(tmp_path)
        commons.publish_run(
            RunRecord(run_id="legacy", intensity="low", nas_parameters={}, engine_parameters=None),
            [],
        )
        with pytest.raises(ValueError, match="no stored configuration"):
            resume_workflow(commons, "legacy")

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        # edge case: nothing left to do — the resumed result must cover
        # the whole run without re-evaluating anything
        config = small_config(seed=39)
        full = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        resumed = resume_workflow(commons, full.run_id)
        assert len(resumed.search.archive) == len(full.search.archive)
        assert [m.fitness for m in resumed.search.archive] == [
            m.fitness for m in full.search.archive
        ]
        assert [g.generation for g in resumed.search.generations] == [
            g.generation for g in full.search.generations
        ]


class TestRebuildSteadyState:
    """Steady prefix rule: the contiguous complete prefix, uncut."""

    def test_prefix_cut_to_whole_chunks(self, tmp_path):
        commons, run_id, full = publish_tick_prefix(tmp_path, keep_ticks=4)
        prefix = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
            evolution="steady",
        )
        # 4 contiguous ticks and no cut back to the whole chunk (3): the
        # chunk stats are computed live on resume, not rebuilt
        assert [r.model_id for r in prefix] == [0, 1, 2, 3]
        assert [r.logical_tick for r in prefix] == [0, 1, 2, 3]
        assert_resumes_to(commons, run_id, full)

    def test_id_gap_cuts_the_prefix(self, tmp_path):
        commons, run_id, full = publish_tick_prefix(tmp_path, keep_ticks=6)
        (
            commons.root / "runs" / run_id / "models" / "model_00004.json"
        ).unlink()
        prefix = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
            evolution="steady",
        )
        # ticks 0..3,5 -> contiguous prefix 0..3; model 5 is evaluated again
        assert [r.model_id for r in prefix] == [0, 1, 2, 3]
        assert_resumes_to(commons, run_id, full)

    def test_initial_population_incomplete_rejected(self, tmp_path):
        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=2)
        with pytest.raises(ValueError, match="initial population incomplete"):
            rebuild_search_state(
                commons.load_models(run_id),
                population_size=3,
                offspring_per_generation=3,
                evolution="steady",
            )

    def test_tick_id_mismatch_rejected(self, tmp_path):
        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=6)
        records = commons.load_models(run_id)
        records[2].logical_tick = 5  # corrupted trail
        with pytest.raises(ValueError, match="logical_tick"):
            rebuild_search_state(
                records,
                population_size=3,
                offspring_per_generation=3,
                evolution="steady",
            )


class TestResumeSteadyWorkflow:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        commons, run_id, full = publish_tick_prefix(tmp_path, keep_ticks=4, seed=37)
        resumed = resume_workflow(commons, run_id)
        assert [m.logical_tick for m in resumed.search.archive] == list(range(6))
        for a, b in zip(resumed.search.archive, full.search.archive):
            assert a.model_id == b.model_id
            assert a.logical_tick == b.logical_tick
            assert a.genome == b.genome
            assert a.fitness == b.fitness
        assert len(commons.load_models(run_id)) == 6

    def test_state_survives_serialization_bit_exactly(self, tmp_path):
        # a complete run restores whole from the published JSON: every
        # outcome, tick and survivor comes back without drift
        config = steady_config(seed=41)
        full = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        prefix = rebuild_search_state(
            commons.load_models(full.run_id),
            population_size=config.nas.population_size,
            offspring_per_generation=config.nas.offspring_per_generation,
            evolution="steady",
        )
        assert len(prefix) == len(full.search.archive)
        resumed = assert_resumes_to(commons, full.run_id, full)
        for restored, original in zip(resumed.search.archive, full.search.archive):
            assert restored.logical_tick == original.logical_tick
            assert restored.genome == original.genome
            assert restored.fitness == original.fitness
            assert restored.flops == original.flops
            assert restored.result.fitness_history == original.result.fitness_history
        assert [m.model_id for m in resumed.search.population] == [
            m.model_id for m in full.search.population
        ]

    def test_resume_verifies_against_replay(self, tmp_path):
        from repro.lineage import verify_run

        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=4, seed=43)
        resume_workflow(commons, run_id)
        report = verify_run(commons, run_id)
        assert report.matches, report.summary()


class TestResumeIsTheLiveRun:
    """Resume re-runs the search, so it shares evaluations exactly as the run did."""

    def test_steady_backlog_duplicate_is_evaluated_as_it_was(self, tmp_path):
        # model 13 repeats model 11's genome and, at lag 3, is bred before
        # model 11 commits: the live run evaluated it again; priming every
        # restored record before the backlog was bred made it a cache hit
        config = probe_config(21, steady_lag=3)
        full = run_workflow(config, commons_path=tmp_path)
        assert not full.tracker.records[13].cache_hit
        commons = DataCommons(tmp_path)
        cut_at(commons, config.run_id, 12)
        resumed = assert_resumes_to(commons, config.run_id, full)
        assert not resumed.tracker.records[13].cache_hit

    def test_outcome_that_succeeded_on_retry_is_never_shared(self, tmp_path, monkeypatch):
        # model 2's first attempt fails and its retry succeeds; a retried
        # outcome never enters the cache, so its later duplicates train
        original = SurrogateEvaluator.evaluate

        def attempt_zero_of_model_two_fails(self, individual):
            if individual.model_id == 2 and individual.eval_attempt == 0:
                raise RuntimeError("attempt 0 fails")
            return original(self, individual)

        monkeypatch.setattr(SurrogateEvaluator, "evaluate", attempt_zero_of_model_two_fails)
        config = probe_config(1, evolution="barrier", faults=FaultPolicy(max_retries=2))
        full = run_workflow(config, commons_path=tmp_path)
        assert [e["attempt"] for e in full.tracker.records[2].fault_events] == [0]
        commons = DataCommons(tmp_path)
        cut_at(commons, config.run_id, 4)  # after generation 0
        assert_resumes_to(commons, config.run_id, full)

    def test_a_record_this_seed_does_not_breed_is_refused(self, tmp_path):
        commons, run_id, _ = publish_truncated(tmp_path, keep_generations=1)
        path = commons.root / "runs" / run_id / "models" / "model_00001.json"
        document = read_json(path)
        document["genome"]["bits"][0] ^= 1
        atomic_write_json(path, document)
        with pytest.raises(ValueError, match="model 1: genome"):
            resume_workflow(commons, run_id)


LEGACY_COMMONS = Path(__file__).parent / "fixtures" / "legacy_arena_commons"


class TestLegacyArenaDocuments:
    """Documents written while ``WorkflowConfig`` still had an ``arena`` key."""

    @pytest.mark.parametrize("arena", [False, True, "absent"])
    def test_config_loads_and_drops_the_key(self, arena):
        payload = small_config().to_dict()
        payload.update(dtype="float64", rng_keying="model", eval_cache=False)
        if arena != "absent":
            payload["arena"] = arena
        config = WorkflowConfig.from_dict(payload)
        assert config.dtype == "float64"
        assert "arena" not in config.to_dict()
        assert WorkflowConfig.from_dict(config.to_dict()) == config

    def test_commons_published_at_the_parent_commit_resumes(self, tmp_path):
        # the fixture is a complete float64 real-mode run published by
        # commit f5b4fa0 with "arena": false, i.e. trained on the
        # allocate-per-call kernels that no longer exist
        shutil.copytree(LEGACY_COMMONS, tmp_path / "commons")
        commons = DataCommons(tmp_path / "commons")
        run_id = "legacy_float64_real"
        assert commons.load_run(run_id).workflow_config["arena"] is False
        published = {r.model_id: r for r in commons.load_models(run_id)}
        models = commons.root / "runs" / run_id / "models"
        for record in published.values():
            if record.generation >= 1:
                (models / f"model_{record.model_id:05d}.json").unlink()

        resume_workflow(commons, run_id)

        assert "arena" not in commons.load_run(run_id).workflow_config
        resumed = {r.model_id: r for r in commons.load_models(run_id)}
        assert sorted(resumed) == sorted(published)
        for model_id, old in published.items():
            new = resumed[model_id]
            assert new.genome == old.genome
            assert new.fitness_history == old.fitness_history
            assert (new.epochs_trained, new.terminated_early) == (
                old.epochs_trained, old.terminated_early
            )
            # an old commons must resume under a newer curve-fit solver:
            # what was measured and decided stays exact, the engine's
            # predictions (and the fitness of an early stop, which is
            # one) agree wherever they are valid fitness values.  The
            # retrained half of this fixture moved by at most 3.9e-8
            # when variable projection replaced the trust-region fit;
            # the analyzer's tolerance is 0.5.
            assert new.fitness == pytest.approx(old.fitness, abs=1e-6)
            assert len(new.prediction_history) == len(old.prediction_history)
            for now, was in zip(new.prediction_history, old.prediction_history):
                if 0.0 <= was <= 100.0 or 0.0 <= now <= 100.0:
                    assert now == pytest.approx(was, abs=1e-6)
            # the conv GEMMs accumulate in another order than the deleted
            # kernels did, so the loss agrees to rounding, not to the bit
            assert [e["train_loss"] for e in new.epochs] == pytest.approx(
                [e["train_loss"] for e in old.epochs], rel=1e-12
            )
            # restored records keep the parent's value; retrained ones
            # report the arena every trained network now has
            assert new.arena_enabled is (new.generation >= 1)
