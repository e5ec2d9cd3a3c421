"""Tests for resuming interrupted searches from the commons."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.engine import EngineConfig
from repro.lineage import DataCommons, reproducible
from repro.lineage import commons as commons_module
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


def steady_config(seed):
    config = small_config(seed=seed)
    nas = dataclasses.replace(config.nas, evolution="steady", steady_lag=3)
    return dataclasses.replace(config, nas=nas)


def published_prefix(tmp_path, keep, *, seed=31, steady=False):
    """Publish a small seeded run, then delete its model files from id
    ``keep`` on: the commons, the run id and the uninterrupted run."""
    config = steady_config(seed=seed) if steady else small_config(seed=seed)
    result = run_workflow(config, commons_path=tmp_path)
    commons = DataCommons(tmp_path)
    cut_at(commons, result.run_id, keep)
    return commons, result.run_id, result


def trails(records):
    """What a seeded rerun reproduces of the records, in model-id order."""
    return [reproducible(r) for r in sorted(records, key=lambda r: r.model_id)]


def assert_resumes_to(commons, run_id, full):
    resumed = resume_workflow(commons, run_id)
    assert trails(resumed.tracker.all_records()) == trails(full.tracker.all_records())
    assert trails(commons.load_models(run_id)) == trails(full.tracker.all_records())
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
        commons, run_id, result = published_prefix(tmp_path, 6)
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
        commons, run_id, full = published_prefix(tmp_path, 3)
        prefix = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
        )
        assert [r.model_id for r in prefix] == [0, 1, 2]
        assert_resumes_to(commons, run_id, full)

    def test_partial_generation_dropped(self, tmp_path):
        commons, run_id, full = published_prefix(tmp_path, 6)
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
        # the trails, and the republished commons complete again
        assert_resumes_to(*published_prefix(tmp_path, 3, seed=33))

    def test_resume_verifies_against_replay(self, tmp_path):
        from repro.lineage import verify_run

        commons, run_id, _ = published_prefix(tmp_path, 3, seed=35)
        resume_workflow(commons, run_id)
        report = verify_run(commons, run_id)
        assert report.matches, report.summary()

    def test_resume_requires_stored_config(self, tmp_path):
        # a run document from before the config was stored
        legacy = {"run_id": "legacy", "intensity": "low", "workflow_config": None}
        atomic_write_json(tmp_path / "runs" / "legacy" / "run.json", legacy)
        with pytest.raises(ValueError, match=r"unknown \['intensity'\]"):
            resume_workflow(DataCommons(tmp_path), "legacy")
        del legacy["intensity"]
        atomic_write_json(tmp_path / "runs" / "legacy" / "run.json", legacy)
        with pytest.raises(ValueError, match="workflow_config must be a JSON object"):
            resume_workflow(DataCommons(tmp_path), "legacy")

    def test_a_run_that_cannot_start_leaves_the_earlier_run(self, tmp_path, monkeypatch):
        # the directory is begun afresh only once the search can start
        from repro.workflow.orchestrator import A4NNOrchestrator

        full = run_workflow(small_config(seed=39), commons_path=tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        def no_pool(self, evaluator):
            raise RuntimeError("no worker pool")

        monkeypatch.setattr(A4NNOrchestrator, "build_stream", no_pool)
        with pytest.raises(RuntimeError, match="no worker pool"):
            run_workflow(small_config(seed=39), commons_path=tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert DataCommons(tmp_path).run_ids() == [full.run_id]

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        # edge case: nothing left to do — the resumed result must cover
        # the whole run
        full = run_workflow(small_config(seed=39), commons_path=tmp_path)
        resumed = assert_resumes_to(DataCommons(tmp_path), full.run_id, full)
        assert len(resumed.search.archive) == len(full.search.archive)


class TestRebuildSteadyState:
    """Steady prefix rule: the contiguous complete prefix, uncut."""

    def test_prefix_cut_to_whole_chunks(self, tmp_path):
        commons, run_id, full = published_prefix(tmp_path, 4, steady=True)
        prefix = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
            evolution="steady",
        )
        # 4 contiguous ticks and no cut back to a whole generation (3)
        assert [r.model_id for r in prefix] == [0, 1, 2, 3]
        assert [r.logical_tick for r in prefix] == [0, 1, 2, 3]
        assert_resumes_to(commons, run_id, full)

    def test_id_gap_cuts_the_prefix(self, tmp_path):
        commons, run_id, full = published_prefix(tmp_path, 6, steady=True)
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
        commons, run_id, _ = published_prefix(tmp_path, 2, steady=True)
        with pytest.raises(ValueError, match="initial population incomplete"):
            rebuild_search_state(
                commons.load_models(run_id),
                population_size=3,
                offspring_per_generation=3,
                evolution="steady",
            )

    def test_tick_id_mismatch_rejected(self, tmp_path):
        commons, run_id, _ = published_prefix(tmp_path, 6, steady=True)
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
        resumed = assert_resumes_to(*published_prefix(tmp_path, 4, seed=37, steady=True))
        assert [m.logical_tick for m in resumed.search.archive] == list(range(6))

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

    def test_republish_writes_only_the_models_it_ran(self, tmp_path, monkeypatch):
        # the restored records are kept as published, so their files are
        # neither encoded nor read again
        commons, run_id, full = published_prefix(tmp_path, 4, seed=37, steady=True)
        models = commons.root / "runs" / run_id / "models"
        restored = sorted(models.glob("model_*.json"))
        assert len(restored) == 4

        def state(path):
            stat = path.stat()
            return path.read_bytes(), stat.st_ino, stat.st_mtime_ns

        before = {path: state(path) for path in restored}
        written = []

        def recording(original):
            def write(path, payload):
                written.append(path.relative_to(commons.root).as_posix())
                return original(path, payload)

            return write

        # model files are written as bytes, run documents and the manifest as JSON
        for name in ("atomic_write_bytes", "atomic_write_json"):
            monkeypatch.setattr(commons_module, name, recording(getattr(commons_module, name)))
        assert_resumes_to(commons, run_id, full)
        assert sorted(written) == [
            "manifest.json",
            f"runs/{run_id}/models/model_00004.json",
            f"runs/{run_id}/models/model_00005.json",
        ]
        assert {path: state(path) for path in restored} == before

    def test_resume_verifies_against_replay(self, tmp_path):
        from repro.lineage import verify_run

        commons, run_id, _ = published_prefix(tmp_path, 4, seed=43, steady=True)
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
        original = SurrogateEvaluator.evaluate_many

        def attempt_zero_of_model_two_fails(self, individuals):
            fails = [(m.model_id, m.eval_attempt) == (2, 0) for m in individuals]
            ran = iter(original(self, [m for m, fail in zip(individuals, fails) if not fail]))
            return [RuntimeError("attempt 0 fails") if fail else next(ran) for fail in fails]

        monkeypatch.setattr(SurrogateEvaluator, "evaluate_many", attempt_zero_of_model_two_fails)
        config = probe_config(1, evolution="barrier", faults=FaultPolicy(max_retries=2))
        full = run_workflow(config, commons_path=tmp_path)
        assert [e["attempt"] for e in full.tracker.records[2].fault_events] == [0]
        commons = DataCommons(tmp_path)
        cut_at(commons, config.run_id, 4)  # after generation 0
        assert_resumes_to(commons, config.run_id, full)

    def test_a_record_this_seed_does_not_breed_is_refused(self, tmp_path):
        commons, run_id, _ = published_prefix(tmp_path, 3)
        path = commons.root / "runs" / run_id / "models" / "model_00001.json"
        document = read_json(path)
        document["genome"]["bits"][0] ^= 1
        atomic_write_json(path, document)
        with pytest.raises(ValueError, match="model 1: genome"):
            resume_workflow(commons, run_id)


#: a run that SIGKILLs itself once ``kill_after`` models have committed;
#: argv: config document, kill_after, commons directory.  It prints its
#: worker processes' pids first, so the test can see them go.
_KILLED_RUN = """
import json, os, signal, sys
from repro.workflow import WorkflowConfig, run_workflow
from repro.workflow.orchestrator import A4NNOrchestrator

config = WorkflowConfig.from_dict(json.loads(sys.argv[1]))
kill_after = int(sys.argv[2])
commit = A4NNOrchestrator._on_individual
committed = []

def on_individual(self, individual):
    commit(self, individual)
    committed.append(individual.model_id)
    if len(committed) == kill_after:
        workers = self.pool._workers if self.pool is not None else []
        print(json.dumps([w.process.pid for w in workers if w is not None]), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

A4NNOrchestrator._on_individual = on_individual
run_workflow(config, commons_path=sys.argv[3])
"""

#: (evolution, backend, n_workers, kill_after); the population is 4, so
#: the last run dies inside the initial population
KILLS = [
    ("barrier", "thread", 1, 6),
    ("steady", "thread", 1, 9),
    ("barrier", "process", 2, 11),
    ("steady", "process", 2, 5),
    ("steady", "process", 2, 2),
]


def kill_config(evolution, backend="thread", n_workers=1):
    """A 16-model surrogate search; the steady lag is pinned so every backend breeds alike."""
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=4,
            max_epochs=8,
            evolution=evolution,
            steady_lag=2 if evolution == "steady" else None,
        ),
        engine=EngineConfig(e_pred=8, tolerance=1.0),
        mode="surrogate",
        n_gpus=(1,),
        seed=17,
        run_id="killed",
        backend=backend,
        n_workers=n_workers,
    )


def exited(pid):
    """Whether process ``pid`` is gone (a zombie nobody reaped counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.fixture(scope="module")
def killed_runs(tmp_path_factory):
    """Every run of KILLS, killed side by side: kill -> (commons, worker pids)."""
    import repro

    source = str(Path(repro.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    started = {}
    for kill in KILLS:
        commons = tmp_path_factory.mktemp("killed")
        document = json.dumps(kill_config(*kill[:3]).to_dict())
        started[kill] = commons, subprocess.Popen(
            [sys.executable, "-c", _KILLED_RUN, document, str(kill[3]), str(commons)],
            stdout=subprocess.PIPE,
            env=env,
        )
    runs = {}
    for kill, (commons, process) in started.items():
        out, _ = process.communicate(timeout=60)
        assert process.returncode == -signal.SIGKILL, (kill, process.returncode)
        runs[kill] = DataCommons(commons), json.loads(out)
    return runs


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Each run of KILLS as it publishes when nobody kills it:
    (evolution, backend, n_workers) -> (result, its run.json bytes)."""
    runs = {}
    for settings in dict.fromkeys(kill[:3] for kill in KILLS):
        commons = tmp_path_factory.mktemp("uninterrupted")
        result = run_workflow(kill_config(*settings), commons_path=commons)
        runs[settings] = result, (commons / "runs" / "killed" / "run.json").read_bytes()
    return runs


class TestKilledRunResumes:
    """A SIGKILLed run leaves every committed trail, and resumes to the whole run."""

    def test_a_run_killed_before_its_first_commit_has_nothing_to_resume(self, tmp_path):
        from repro.lineage.records import RunRecord

        commons = DataCommons(tmp_path)
        # all such a run leaves: run.json with the stored config
        commons.start_run(RunRecord("killed", kill_config("steady").to_dict()))
        assert commons.load_models("killed") == []
        with pytest.raises(ValueError, match="initial population incomplete"):
            resume_workflow(commons, "killed")

    @pytest.mark.parametrize("kill", KILLS, ids=["-".join(map(str, k)) for k in KILLS])
    def test_killed_run_resumes_to_the_uninterrupted_trails(self, killed_runs, uninterrupted, kill):
        evolution, backend, n_workers, kill_after = kill
        commons, workers = killed_runs[kill]
        assert len(workers) == (n_workers if backend == "process" else 0)
        deadline = time.monotonic() + 10
        while not all(map(exited, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert all(map(exited, workers)), "a worker outlived the killed run"
        # the committed trails are on disk, in a run the manifest does not list
        models = commons.root / "runs" / "killed" / "models"
        assert len(list(models.glob("model_*.json"))) == kill_after
        assert commons.run_ids() == []
        # run.json is written once, at the start: the killed run's is the finished run's
        run_json = commons.root / "runs" / "killed" / "run.json"
        assert run_json.read_bytes() == uninterrupted[kill[:3]][1]
        started = run_json.stat().st_ino
        if kill_after < 4:
            with pytest.raises(ValueError, match="initial population incomplete"):
                resume_workflow(commons, "killed")
            return
        full, _ = uninterrupted[(evolution, "thread", 1)]
        resumed = assert_resumes_to(commons, "killed", full)
        assert resumed.config.backend == backend
        assert commons.run_ids() == ["killed"]
        # publishing listed the run and left its run.json in place (a rewrite
        # is an atomic replace, which makes a new inode)
        assert run_json.stat().st_ino == started
        assert run_json.read_bytes() == uninterrupted[kill[:3]][1]
