"""Process-parallel evaluation backend: parity, hard kills, FIFO, shm.

Every backend publishes bit-identical lineage records and cache
statistics on a seeded mini search (both evolution modes, eval cache on
and off), hung candidates are hard-killed within the policy timeout with
the worker respawned, no worker processes leak past ``close()``, and
submission order stays FIFO under unequal per-job delays.

The pool's factory keeps the direct-pool tests cheap: a module-level
factory (a worker imports it by module name) that ignores the
worker's dataset builds a scripted evaluator
inside the worker, so the dispatch / timeout / retry machinery is
exercised without training anything.  Workflow runs hand the pool the
orchestrator's own ``evaluation_chain`` instead.
"""

import dataclasses
import functools
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.plugin import TrainingResult
from repro.lineage import reproducible
from repro.nas import Individual, random_genome
from repro.nas.evalcache import MemoizingStream, evaluation_key
from repro.nas.search import EvalStream, InlineStream, NSGANet, NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.nn import load_checkpoint, state_dict
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.scheduler.pool import JobTiming, PoolReport
from repro.scheduler.procpool import EvalResult, EvalTask, ProcessWorkerPool
from repro.utils.validation import ValidationError
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator, evaluation_chain
from repro.xfel.dataset import DatasetConfig
from repro.xfel.shm import attach_dataset, share_dataset


def make_individuals(rng, n, generation=0, first_id=0):
    return [
        Individual(random_genome(rng), first_id + i, generation) for i in range(n)
    ]


def run_generation(stream, individuals):
    """One barrier generation through the seam, driven by the search's own code."""
    NSGANet(NSGANetConfig(), None, stream=stream)._run_generation(individuals)


class ScriptedEvaluator:
    """Deterministic scripted evaluator: delays, hangs, and scripted failures.

    Behaviour derives from ``model_id`` only, so a copy rebuilt inside a
    spawned worker acts exactly like the parent's would have.
    """

    max_epochs = 1

    def __init__(self, hang_ids=(), fail_ids=(), delay_scale=0.0):
        self.hang_ids = set(hang_ids)
        self.fail_ids = set(fail_ids)
        self.delay_scale = delay_scale

    def evaluate(self, individual):
        mid = individual.model_id
        if mid in self.hang_ids:
            time.sleep(60.0)
        if mid in self.fail_ids and individual.eval_attempt == 0:
            raise RuntimeError(f"boom {mid}")
        if self.delay_scale:
            # pseudo-random per-job delay, reproducible in any process
            time.sleep(((mid * 7919) % 5) * self.delay_scale)
        individual.settle(TrainingResult(50.0 + mid, 1, False, flops=1000 + mid))
        return individual


def delay_factory(*_):
    return ScriptedEvaluator(delay_scale=0.01)


def hang_factory(*_):
    return ScriptedEvaluator(hang_ids=(0,))


def flaky_pair_factory(*_):
    return ScriptedEvaluator(fail_ids=(1, 3))


def flaky_single_factory(*_):
    return ScriptedEvaluator(fail_ids=(2,))


def first_fails_factory(*_):
    """Model 0 crashes on its first attempt; everything else is cacheable."""
    return ScriptedEvaluator(fail_ids=(0,), delay_scale=0.01)


def broken_factory(*_):
    raise ValueError("no evaluator here")


class UnsettledEvaluator:
    """Sets the objectives by hand and settles no result."""

    max_epochs = 1

    def evaluate(self, individual):
        individual.fitness, individual.flops = 50.0, 1000
        return individual


def unsettled_factory(*_):
    return UnsettledEvaluator()


def slow_start_factory(*_):
    time.sleep(0.5)
    return ScriptedEvaluator()


#: model 1's first attempt crashes after training this many epochs
CRASH_MODEL, CRASH_AFTER = 1, 2


class _CrashingTrace(list):
    """A trace that raises once it holds ``CRASH_AFTER`` epochs."""

    def append(self, entry):
        super().append(entry)
        if len(self) == CRASH_AFTER:
            raise RuntimeError(f"crashed after epoch {CRASH_AFTER}")


class CrashAfterEpochs:
    """``inner``, except that model ``CRASH_MODEL``'s first attempt
    raises mid-training, after its ``CRASH_AFTER``-th epoch."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, individual):
        if (individual.model_id, individual.eval_attempt) != (CRASH_MODEL, 0):
            return self.inner.evaluate(individual)
        individual.trace = _CrashingTrace(individual.trace)
        try:
            return self.inner.evaluate(individual)
        finally:
            individual.trace = list(individual.trace)


def crash_after_epochs_chain(config, dataset, checkpoint_dir=None):
    """:func:`evaluation_chain` under :class:`CrashAfterEpochs`; importable
    by a worker, which builds its evaluator from it."""
    return CrashAfterEpochs(evaluation_chain(config, dataset, checkpoint_dir))


def make_pool(factory, n_workers=2, **kwargs):
    return ProcessWorkerPool(factory, n_workers, **kwargs)


def _proc_stat(pid):
    """(state, parent pid) of a process, or ``None`` once it is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def pool_workers(parent=None):
    """Live pool worker processes whose parent is ``parent`` (default: us)."""
    parent = os.getpid() if parent is None else parent
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        stat = _proc_stat(entry.name)
        if (
            b"repro.scheduler.procpool" in cmdline
            and stat is not None
            and stat[0] != "Z"
            and stat[1] == parent
        ):
            pids.add(int(entry.name))
    return pids


def env_with_package():
    """The environment a script needs to import the package under test."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")


def shm_entries():
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


class TestMessageTypes:
    def test_spec_task_result_pickle_roundtrip(self, rng):
        # a worker's whole recipe is the run's config: every setting that
        # reaches evaluation_chain must survive the spawn boundary
        config = WorkflowConfig(
            nas=NSGANetConfig(max_epochs=4, evolution="steady", steady_lag=3),
            engine=EngineConfig(e_pred=4),
            seed=9,
            backend="process",
            n_workers=2,
            faults=FaultPolicy(max_retries=1, timeout_seconds=2.0),
            fault_injection=FaultInjectionConfig(rate=0.3, modes=("crash", "nan")),
            surrogate=SurrogateConfig(min_records=6),
        )
        factory = functools.partial(evaluation_chain, config)
        restored = pickle.loads(pickle.dumps(factory))
        assert restored.func is evaluation_chain and restored.args == (config,)
        task = EvalTask(model_id=3, generation=1, attempt=0, genome=random_genome(rng))
        restored = pickle.loads(pickle.dumps(task))
        assert restored.model_id == 3 and restored.genome == task.genome
        result = EvalResult(TrainingResult(81.5, 1, False, flops=7), ((1, 81.5, None, None, None),))
        assert pickle.loads(pickle.dumps(result)) == result

    def test_result_transports_exception(self):
        from repro.scheduler.procpool import _encode_error

        result = EvalResult(error=_encode_error(RuntimeError("boom")))
        exc = result.exception()
        assert isinstance(exc, RuntimeError) and str(exc) == "boom"

    def test_unpicklable_error_degrades_to_summary(self):
        from repro.scheduler.procpool import _encode_error

        class Hostile(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        exc = pickle.loads(_encode_error(Hostile("payload")))
        assert isinstance(exc, RuntimeError)
        assert "Hostile" in str(exc) and "payload" in str(exc)


class TestSharedMemory:
    def test_share_attach_roundtrip_is_bytewise_and_readonly(self, tiny_dataset):
        spec, arena = share_dataset(tiny_dataset)
        try:
            attached, (mapping,) = attach_dataset(spec)
            for name in ("x_train", "y_train", "x_test", "y_test"):
                original = getattr(tiny_dataset, name)
                view = getattr(attached, name)
                assert np.array_equal(view, original)
                assert view.dtype == original.dtype
                # read-only because the mapping is: the flag cannot come back
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view.flags.writeable = True
            with pytest.raises(ValueError):
                attached.x_train[0] = 0.0
            with pytest.raises(TypeError):
                mapping[0] = 1
            assert attached.n_classes == tiny_dataset.n_classes
            assert attached.image_size == tiny_dataset.image_size
            del attached, view
            mapping.close()  # the views were its only borrowers
        finally:
            arena.close()

    def test_spec_is_tiny_regardless_of_payload(self, tiny_dataset):
        spec, arena = share_dataset(tiny_dataset)
        try:
            # the whole point of sharing: the picklable handle stays O(1)
            assert len(pickle.dumps(spec)) < 2048
            assert spec.x_train.nbytes == tiny_dataset.x_train.nbytes
            # one anonymous file: nothing named under /dev/shm
            assert spec.fd == arena.fd
            assert os.readlink(f"/proc/self/fd/{spec.fd}").startswith("/memfd:")
            assert spec.size >= sum(
                getattr(tiny_dataset, name).nbytes
                for name in ("x_train", "y_train", "x_test", "y_test")
            )
        finally:
            arena.close()

    def test_arena_close_is_idempotent(self, tiny_dataset):
        _, arena = share_dataset(tiny_dataset)
        fd = arena.fd
        os.fstat(fd)
        arena.close()
        assert arena.fd is None
        with pytest.raises(OSError):
            os.fstat(fd)  # the descriptor is closed
        arena.close()  # second close is a no-op


class TestProcessPoolDirect:
    def test_satisfies_worker_pool_protocol(self):
        # the search drives the stream seam; the orchestrator reads the
        # reports and releases the workers
        pool = make_pool(delay_factory)
        assert isinstance(pool, EvalStream)
        assert pool.n_workers == 2 and pool.reports == []
        pool.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            make_pool(delay_factory, n_workers=0)

    def test_generation_evaluates_all_and_reports_fifo(self, rng):
        pool = make_pool(delay_factory, n_workers=2)
        try:
            individuals = make_individuals(rng, 6)
            run_generation(pool, individuals)
            assert [ind.fitness for ind in individuals] == [
                50.0 + i for i in range(6)
            ]
            assert pool.alive_workers() == 2
            [report] = pool.reports
            assert report.n_jobs == 6 and report.n_workers == 2
            assert [j.job_id for j in report.jobs] == list(range(6))
            # FIFO under unequal delays: job i starts no later than job i+1
            starts = [j.start_seconds for j in report.jobs]
            assert starts == sorted(starts)
            assert 0.0 < report.busy_seconds <= 2 * report.wall_seconds
            assert len(report.worker_busy_seconds) == 2
        finally:
            pool.close()
        assert pool.alive_workers() == 0

    def test_close_is_idempotent_and_final(self, rng):
        pool = make_pool(delay_factory, n_workers=1)
        run_generation(pool, make_individuals(rng, 1))
        pool.close()
        pool.close()
        assert pool.alive_workers() == 0
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(make_individuals(rng, 1)[0])

    def test_close_sends_every_sentinel_before_joining(self, rng, tiny_dataset):
        # workers exit concurrently: close costs the slowest exit, not the
        # sum of them
        spec, arena = share_dataset(tiny_dataset)
        pool = make_pool(delay_factory, n_workers=3, dataset=spec, arena=arena)
        run_generation(pool, make_individuals(rng, 3))
        workers = list(pool._workers)
        calls = []

        def recording(kind, index, method):
            def call(*args, **kwargs):
                calls.append((kind, index))
                return method(*args, **kwargs)

            return call

        for worker in workers:
            worker.conn.send = recording("send", worker.index, worker.conn.send)
            worker.process.wait = recording("wait", worker.index, worker.process.wait)
        pool.close()
        kinds = [kind for kind, _ in calls]
        assert kinds[:3] == ["send"] * 3 and set(kinds[3:]) == {"wait"}
        assert {index for kind, index in calls if kind == "wait"} == {0, 1, 2}
        # each worker took the fast exit after its sentinel
        assert [worker.process.returncode for worker in workers] == [0, 0, 0]
        assert pool.alive_workers() == 0 and arena.fd is None
        with pytest.raises(OSError):
            os.fstat(spec.fd)  # the memory file's descriptor is closed

    def test_an_attempt_without_a_result_settles_as_a_crash(self, rng):
        # the parent could not settle it: it fails, and does not hang
        pool = make_pool(unsettled_factory, n_workers=1, policy=FaultPolicy(max_retries=1))
        try:
            individual = make_individuals(rng, 1)[0]
            pool.submit(individual)
            assert pool.settled() is individual and individual.quarantined
            assert [e["kind"] for e in individual.fault_events] == ["crash", "crash"]
            assert "returned without a result" in individual.fault_events[0]["error"]
        finally:
            pool.close()

    def test_single_error_reraises_after_generation_settles(self, rng):
        pool = make_pool(flaky_single_factory, n_workers=2)
        try:
            individuals = make_individuals(rng, 5)
            with pytest.raises(RuntimeError, match="boom 2"):
                run_generation(pool, individuals)
            assert all(
                ind.evaluated for ind in individuals if ind.model_id != 2
            )
            assert pool.reports[-1].n_jobs == 5
        finally:
            pool.close()

    def test_multiple_errors_raise_one_runtime_error(self, rng):
        pool = make_pool(flaky_pair_factory, n_workers=2)
        try:
            with pytest.raises(RuntimeError) as excinfo:
                run_generation(pool, make_individuals(rng, 5))
            assert str(excinfo.value) == "2 of 5 evaluations failed: boom 1; boom 3"
            assert str(excinfo.value.__cause__) in {"boom 1", "boom 3"}
        finally:
            pool.close()

    def test_policy_retries_transient_failure(self, rng):
        pool = make_pool(
            flaky_pair_factory,
            n_workers=2,
            policy=FaultPolicy(max_retries=1),
        )
        try:
            individuals = make_individuals(rng, 5)
            run_generation(pool, individuals)  # does not raise
            # the scripted failure clears on attempt 1: retried, not quarantined
            assert all(ind.evaluated and not ind.quarantined for ind in individuals)
            events = [
                (ind.model_id, e["kind"], e["action"])
                for ind in individuals
                for e in ind.fault_events
            ]
            assert events == [(1, "crash", "retry"), (3, "crash", "retry")]
            report = pool.reports[-1]
            # a retried job keeps ONE timing spanning both attempts
            assert len(report.jobs) == 5
        finally:
            pool.close()


#: a search run as a script with no ``__main__`` guard: workers start from
#: the package, so the script's top level runs once, in the parent only
NO_GUARD_SCRIPT = """
import sys

with open(sys.argv[1], "a") as log:
    log.write("top level\\n")

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator

config = WorkflowConfig(
    nas=NSGANetConfig(population_size=4, offspring_per_generation=4, generations=2,
                      max_epochs=4),
    engine=EngineConfig(e_pred=4),
    mode="surrogate",
    seed=7,
    backend="process",
    n_workers=2,
)
result = A4NNOrchestrator(config).run()
print(len(result.tracker.all_records()), "records")
"""

#: a real-mode process@2 search, one steady episode of a few seconds,
#: repeated until the test kills it
KILL_SCRIPT = """
from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.dataset import DatasetConfig

config = WorkflowConfig(
    nas=NSGANetConfig(population_size=4, offspring_per_generation=4, generations=15,
                      max_epochs=4, evolution="steady"),
    engine=EngineConfig(e_pred=4),
    dataset=DatasetConfig(images_per_class=20, image_size=16),
    mode="real",
    seed=11,
    backend="process",
    n_workers=2,
)
while True:
    A4NNOrchestrator(config).run()
"""


class TestWorkerStart:
    def test_script_without_main_guard_runs_its_top_level_once(self, tmp_path):
        script, log = tmp_path / "search.py", tmp_path / "log.txt"
        script.write_text(NO_GUARD_SCRIPT)
        done = subprocess.run(
            [sys.executable, str(script), str(log)],
            env=env_with_package(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "8 records"
        assert log.read_text() == "top level\n"

    @pytest.mark.parametrize(
        "factory, kwargs, message",
        [
            (broken_factory, {}, "failed to initialize: ValueError: no evaluator here"),
            (slow_start_factory, {"startup_timeout": 0.2}, "did not come up within 0.2s"),
        ],
        ids=["factory_raises", "too_slow"],
    )
    def test_factory_error_raises_one_runtime_error_naming_the_worker(
        self, rng, factory, kwargs, message
    ):
        pool = make_pool(factory, n_workers=2, **kwargs)
        individuals = make_individuals(rng, 3)
        try:
            # submit never waits for a worker: the failure arrives with the
            # first reply, as one error, and every later call raises it again
            with pytest.raises(RuntimeError, match=rf"^worker [01] {message}$") as failure:
                run_generation(pool, individuals)
            for call in (pool.settled, pool.finish, lambda: pool.submit(individuals[0])):
                with pytest.raises(RuntimeError) as again:
                    call()
                assert again.value is failure.value
        finally:
            pool.close()
        assert pool.alive_workers() == 0
        assert not any(ind.evaluated for ind in individuals)

    def test_episode_clock_starts_at_the_first_dispatch(self, rng):
        # a worker that takes half a second to build its evaluator is not
        # on the episode's clock: the job itself is all the report holds
        pool = make_pool(slow_start_factory, n_workers=1)
        try:
            start = time.monotonic()
            run_generation(pool, make_individuals(rng, 1))
            assert time.monotonic() - start >= 0.5
            [report] = pool.reports
            assert report.wall_seconds < 0.25
            assert report.jobs[0].start_seconds < 0.01
        finally:
            pool.close()

    def test_sigkilled_search_leaves_no_worker_and_no_segment(self, tmp_path):
        before = shm_entries()
        script = tmp_path / "search.py"
        script.write_text(KILL_SCRIPT)
        search = subprocess.Popen([sys.executable, str(script)], env=env_with_package())
        try:
            give_up = time.monotonic() + 120
            while len(workers := pool_workers(search.pid)) < 2:
                assert search.poll() is None and time.monotonic() < give_up
                time.sleep(0.02)
            time.sleep(1.0)  # both workers are up and training: mid-episode
            assert pool_workers(search.pid) == workers
        finally:
            search.send_signal(signal.SIGKILL)
            search.wait(timeout=10)
        give_up = time.monotonic() + 10
        while any(alive(pid) for pid in workers) and time.monotonic() < give_up:
            time.sleep(0.05)
        assert not [pid for pid in workers if alive(pid)]
        assert shm_entries() - before == set()


class TestHardKill:
    def test_hang_is_killed_within_timeout_and_worker_respawned(self, rng):
        pool = make_pool(
            hang_factory,
            n_workers=2,
            policy=FaultPolicy(max_retries=1, timeout_seconds=0.5),
        )
        try:
            individuals = make_individuals(rng, 4)
            start = time.monotonic()
            run_generation(pool, individuals)
            elapsed = time.monotonic() - start
            # model 0 hangs 60s per attempt; two attempts were reclaimed
            # in well under one hang's duration
            assert elapsed < 30.0
            assert individuals[0].quarantined
            assert pool.n_killed == 2
            assert all(ind.evaluated for ind in individuals)
            assert [
                (e["kind"], e["action"]) for e in individuals[0].fault_events
            ] == [("timeout", "retry"), ("timeout", "quarantine")]
        finally:
            pool.close()
        assert pool.alive_workers() == 0


def surrogate_config(backend, n_workers=1, eval_cache=True, seed=7, **kwargs):
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=5,
            offspring_per_generation=5,
            generations=2,
            max_epochs=4,
        ),
        engine=EngineConfig(e_pred=4),
        mode="surrogate",
        n_gpus=(1,),
        seed=seed,
        backend=backend,
        n_workers=n_workers,
        eval_cache=eval_cache,
        **kwargs,
    )


def published(result):
    """What the run publishes that a seeded rerun reproduces."""
    return [reproducible(record) for record in result.tracker.all_records()]


def faulty_config(backend, n_workers):
    """Crashes, hangs and NaNs injected into 30 % of attempts, one retry each."""
    return surrogate_config(
        backend,
        n_workers,
        eval_cache=False,
        seed=3,
        faults=FaultPolicy(max_retries=1),
        fault_injection=FaultInjectionConfig(rate=0.3, modes=("crash", "hang", "nan")),
    )


def pinned_fault_trails(result):
    """:func:`published` as ``faulted_trails.json`` holds it, in JSON: the
    fixture predates the sampled epoch seconds in the contract, and holds
    each epoch's checkpoint (none) in their place."""
    trails = published(result)
    for trail in trails:
        for epoch in trail["epochs"]:
            del epoch["epoch_seconds"]
            epoch["checkpoint"] = None
    return json.loads(json.dumps(trails))


FIXTURES = Path(__file__).parent / "fixtures"

class TestBackendParitySurrogate:
    @pytest.mark.parametrize("eval_cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("backend, n_workers", [("thread", 1), ("thread", 2), ("process", 2)])
    @pytest.mark.parametrize("evolution", ["barrier", "steady"])
    def test_backends_agree(self, evolution, backend, n_workers, eval_cache):
        from tests.test_reproducibility import assert_reproduces

        # the lineage, cache statistics and pool reports of the reference
        # run, which lineage_pr8_baseline.json pins behind a barrier; the
        # run closed its workers
        assert_reproduces(f"{evolution}-off-clean", (backend, n_workers), eval_cache)
        assert not pool_workers()

    def test_one_candidate_settles_an_equal_result_on_both_backends(self):
        # the whole outcome crosses the worker pipe as one TrainingResult:
        # field for field what the inline chain settles, wall clock aside
        config = surrogate_config("process", n_workers=2, seed=21)
        genome = random_genome(np.random.default_rng(21))
        inline = Individual(genome, model_id=0, generation=0)
        evaluation_chain(config, None).evaluate(inline)
        remote = Individual(genome, model_id=0, generation=0)
        pool = ProcessWorkerPool(functools.partial(evaluation_chain, config), n_workers=2)
        try:
            pool.submit(remote)
            assert pool.settled() is remote
        finally:
            pool.close()
        wall = {
            "engine_overhead_seconds": 0.0,
            "engine_overhead_mean": 0.0,
            "engine_overhead_variance": 0.0,
        }
        assert dataclasses.replace(remote.result, **wall) == dataclasses.replace(
            inline.result, **wall
        )
        assert (remote.fitness, remote.flops) == (inline.result.fitness, inline.result.flops)
        assert remote.result.epoch_seconds and remote.trace == inline.trace

    def test_fault_injection_parity(self):
        # parity alone would pass a change that moved the trail on both
        # backends at once (both route through FaultPolicy.route): each
        # half is also held against the pinned inline trail
        pinned = json.loads((FIXTURES / "faulted_trails.json").read_text())
        r_inline = A4NNOrchestrator(faulty_config("thread", 1)).run()
        r_process = A4NNOrchestrator(faulty_config("process", 2)).run()
        assert published(r_process) == published(r_inline)
        assert r_process.search.n_quarantined == r_inline.search.n_quarantined
        assert pinned_fault_trails(r_inline) == pinned
        assert pinned_fault_trails(r_process) == pinned
        assert any(trail["fault_events"] for trail in pinned)

    def test_a_failed_attempts_epochs_lead_the_committed_trail(self, monkeypatch):
        # the attempt crashes inside a worker after training: the epochs
        # it trained cross the pipe with the error and stay on the trail
        monkeypatch.setattr(
            "repro.workflow.orchestrator.evaluation_chain", crash_after_epochs_chain
        )
        runs = {
            backend: A4NNOrchestrator(
                surrogate_config(
                    backend, n_workers, eval_cache=False, faults=FaultPolicy(max_retries=1)
                )
            ).run()
            for backend, n_workers in (("thread", 1), ("process", 2))
        }
        process = runs["process"]
        record = process.tracker.records[CRASH_MODEL]
        assert [event["action"] for event in record.fault_events] == ["retry"]
        # what the failed attempt trained: attempt 0 of the same candidate
        crashed = process.search.archive[CRASH_MODEL]
        attempt = Individual(crashed.genome, CRASH_MODEL, crashed.generation)
        evaluation_chain(process.config, None).evaluate(attempt)
        assert len(attempt.trace) > CRASH_AFTER
        assert [
            (epoch.epoch, epoch.validation_accuracy, epoch.prediction)
            for epoch in record.epochs
        ][:CRASH_AFTER] == [entry[:3] for entry in attempt.trace[:CRASH_AFTER]]
        assert len(record.epochs) == CRASH_AFTER + record.epochs_trained
        assert published(process) == published(runs["thread"])

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_thread_workers_evaluate_on_the_search_thread(self, n_workers):
        # sampled curves hold the GIL: more threads build no pool and only
        # pin the steady lag, here fixed at 2 for every worker count
        from tests.test_reproducibility import RECIPES, assert_reproduces

        config = dataclasses.replace(RECIPES["steady-off-clean"], n_workers=n_workers)
        orchestrator = A4NNOrchestrator(config)
        stream = orchestrator.build_stream(orchestrator.build_evaluator())
        assert orchestrator.pool is None and isinstance(stream.inner, InlineStream)
        assert config.effective_nas().steady_lag == 2
        assert_reproduces("steady-off-clean", ("thread", n_workers))


def real_config(backend, n_workers, evolution="barrier", **kwargs):
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=2,
            max_epochs=3,
            evolution=evolution,
            steady_lag=2 if evolution == "steady" else None,
        ),
        engine=EngineConfig(e_pred=3),
        dataset=DatasetConfig(images_per_class=8, image_size=12),
        mode="real",
        n_gpus=(1,),
        seed=11,
        backend=backend,
        n_workers=n_workers,
        **kwargs,
    )


#: what ``bench_spine/run.py`` digests of a record: no wall clock, no loss
DEFAULT_REAL_FIELDS = (
    "model_id", "generation", "genome", "fitness", "measured_fitness", "flops",
    "terminated_early", "epochs_trained", "fitness_history", "prediction_history",
    "quarantined", "cache_hit", "budget_assigned", "skip_reason",
)


def default_real_records(result):
    """``DEFAULT_REAL_FIELDS`` of every record, as ``default_real.json`` holds them."""
    rows = [
        {name: getattr(record, name) for name in DEFAULT_REAL_FIELDS}
        for record in result.tracker.all_records()
    ]
    return json.loads(json.dumps(rows))


@functools.cache
def inline_and_process():
    """The same real-mode run inline and on two worker processes."""
    inline = A4NNOrchestrator(real_config("thread", 1))
    process = A4NNOrchestrator(real_config("process", 2))
    return inline, inline.run(), process, process.run()


class TestBackendParityReal:
    def test_shared_memory_training_matches_serial(self):
        inline, r_inline, process, r_process = inline_and_process()
        assert published(r_process) == published(r_inline)
        assert process.memoizer.cache.stats() == inline.memoizer.cache.stats()
        # one PoolReport per generation on processes, none inline
        assert len(process.pool_reports) == 2 and inline.pool_reports == []
        assert all(r.n_workers == 2 and r.n_jobs > 0 for r in process.pool_reports)
        # run() closed the pool, which also closed the dataset's file
        assert process.pool is None
        assert not pool_workers()

    def test_default_path_matches_the_pin(self):
        # the path every new run takes, pinned independently of parity:
        # a change that moved real-mode lineage on both backends at once
        # would still pass the two tests above
        pinned = json.loads((FIXTURES / "default_real.json").read_text())
        _, r_inline, _, r_process = inline_and_process()
        assert default_real_records(r_inline) == pinned
        assert default_real_records(r_process) == pinned
        assert sum(row["cache_hit"] for row in pinned) == 1

    def test_checkpoint_dir_alone_saves_every_trained_epoch(self, tmp_path):
        # a checkpoint_dir is the whole request: each worker saves the
        # epochs it trains, and the paths come back in the trace: the
        # same lineage as inline, up to the run's folder
        def run(backend, n_workers):
            folder = tmp_path / backend
            config = real_config(backend, n_workers)
            records = A4NNOrchestrator(config, checkpoint_dir=folder).run().tracker.all_records()
            checkpoints = [
                {name: Path(path).relative_to(folder).as_posix() for name, path in saved.items()}
                if saved is not None
                else None
                for record in records
                for saved in record.epochs.column("checkpoint")
            ]
            return records, checkpoints

        process, checkpoints = run("process", 2)
        inline, inline_checkpoints = run("thread", 1)
        assert list(map(reproducible, process)) == list(map(reproducible, inline))
        assert checkpoints == inline_checkpoints
        for record in process:
            saved = [c is not None for c in record.epochs.column("checkpoint")]
            assert saved == [not record.cache_hit] * record.epochs_trained
        checkpoints = [c for c in checkpoints if c is not None]
        assert len(checkpoints) > len(process)
        for checkpoint in checkpoints:
            state = Path(checkpoint["state"])
            tag = state.name.removesuffix(".state.npz")
            saved = {
                side: state_dict(load_checkpoint(tmp_path / side / state.parent, tag=tag))
                for side in ("process", "thread")
            }
            assert saved["process"].keys() == saved["thread"].keys()
            for key, array in saved["process"].items():
                np.testing.assert_array_equal(array, saved["thread"][key])


def duplicates(rng, n, *, first_id=0, budget=None):
    """``n`` individuals of one genome: every one after the first is a duplicate."""
    individuals = make_individuals(rng, n, first_id=first_id)
    for individual in individuals:
        individual.genome = individuals[0].genome
        individual.budget_assigned = budget
    return individuals


def memoize(inner):
    return MemoizingStream(inner, max_epochs=ScriptedEvaluator.max_epochs, wait_for_leader=True)


class TestRegisterRemote:
    """Leaders evaluated in worker processes count and prime like local ones."""

    def _drain(self, rng, n, *, first_id=0, budget=None, **pool_kwargs):
        pool = make_pool(first_fails_factory, n_workers=2, **pool_kwargs)
        memo = memoize(pool)
        individuals = duplicates(rng, n, first_id=first_id, budget=budget)
        try:
            run_generation(memo, individuals)
        finally:
            pool.close()
        return memo, individuals

    def test_clean_leader_primes_cache_and_counts_miss(self, rng):
        memo, (leader, follower) = self._drain(rng, 2, first_id=1)
        assert memo.cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert memo.cache.lookup(evaluation_key(leader, 1)).source_model_id == leader.model_id
        assert follower.cache_hit and follower.cache_source == leader.model_id
        assert follower.fitness == leader.fitness

    def test_faulted_leader_counts_miss_but_never_caches(self, rng):
        memo, (faulted,) = self._drain(rng, 1, policy=FaultPolicy(max_retries=1))
        assert faulted.evaluated and faulted.eval_attempt == 1
        assert memo.cache.stats() == {"entries": 0, "hits": 0, "misses": 1}

    def test_unkeyed_leader_is_ignored(self, rng):
        memo, _ = self._drain(rng, 2, first_id=1, budget=0)
        assert memo.cache.stats() == {"entries": 0, "hits": 0, "misses": 0}


class TestSecondWave:
    """A leader that settles uncacheable promotes its first follower, which
    leads the rest: the same flags and counters on every backend (the batch
    memoizer's second wave raced by worker count)."""

    @pytest.mark.parametrize("backend, n_workers", [("thread", 1), ("process", 2)])
    def test_hits_do_not_depend_on_backend_or_worker_count(self, rng, backend, n_workers):
        policy = FaultPolicy(max_retries=0)  # model 0 is quarantined
        if backend == "process":
            inner = make_pool(first_fails_factory, n_workers=n_workers, policy=policy)
        else:
            inner = InlineStream(first_fails_factory(), policy=policy)
        memo = memoize(inner)
        individuals = duplicates(rng, 3)
        try:
            run_generation(memo, individuals)
        finally:
            if backend == "process":
                inner.close()
        assert individuals[0].quarantined
        assert [i.cache_hit for i in individuals] == [False, False, True]
        assert [i.cache_source for i in individuals] == [None, None, 1]
        assert memo.cache.stats() == {"entries": 1, "hits": 1, "misses": 2}
        if backend == "process":
            assert len(inner.reports) == 1  # the promoted follower joined the open episode


class TestWorkflowConfigBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="backend"):
            WorkflowConfig(backend="mpi")

    def test_backend_roundtrips_and_defaults_to_thread(self):
        config = WorkflowConfig(backend="process", n_workers=4)
        restored = WorkflowConfig.from_dict(config.to_dict())
        assert restored.backend == "process" and restored.n_workers == 4
        payload = config.to_dict()
        del payload["backend"]
        assert WorkflowConfig.from_dict(payload).backend == "thread"


class TestPoolTraceRendering:
    def _report(self):
        return PoolReport(
            n_workers=2,
            wall_seconds=10.0,
            n_jobs=3,
            jobs=(
                JobTiming(0, 0, 0.0, 4.0),
                JobTiming(1, 1, 0.0, 10.0),
                JobTiming(2, 0, 4.0, 7.0),
            ),
            worker_busy_seconds=(7.0, 10.0),
        )

    def test_barrier_downtime_per_worker(self):
        report = self._report()
        assert report.barrier_downtime() == [3.0, 0.0]
        assert report.busy_seconds == 17.0
        assert [j.duration for j in report.jobs] == [4.0, 10.0, 3.0]


class TestStreamingSeam:
    """The submit/settled/finish seam steady-state evolution runs on."""

    def test_settled_without_submissions_raises(self):
        pool = make_pool(delay_factory, n_workers=2)
        try:
            with pytest.raises(RuntimeError, match="no evaluations in flight"):
                pool.settled()
        finally:
            pool.close()

    def test_stream_error_propagates_at_settle(self, rng):
        pool = make_pool(first_fails_factory, n_workers=1)
        try:
            pool.submit(make_individuals(rng, 1)[0])
            with pytest.raises(RuntimeError, match="boom 0"):
                pool.settled()
        finally:
            pool.close()

    def test_close_flushes_open_stream_report(self, rng):
        pool = make_pool(delay_factory, n_workers=2)
        pool.submit(make_individuals(rng, 1)[0])
        pool.settled()
        pool.close()  # stream never finished explicitly
        assert len(pool.reports) == 1 and pool.reports[0].n_jobs == 1

    def test_process_stream_settles_all_and_reports_once(self, rng):
        pool = make_pool(delay_factory, n_workers=2)
        try:
            individuals = make_individuals(rng, 5)
            for ind in individuals:
                pool.submit(ind)
            settled = [pool.settled() for _ in range(5)]
            assert sorted(ind.model_id for ind in settled) == list(range(5))
            assert all(ind.fitness == 50.0 + ind.model_id for ind in settled)
            report = pool.finish()
            assert report.n_jobs == 5
            assert pool.reports == [report]
            with pytest.raises(RuntimeError, match="no evaluations in flight"):
                pool.settled()
        finally:
            pool.close()


class TestIdleWorkerAccounting:
    def _oversized_report(self):
        # 3-worker pool, but only worker 0 ever ran a job
        return PoolReport(
            n_workers=3,
            wall_seconds=10.0,
            n_jobs=2,
            jobs=(JobTiming(0, 0, 0.0, 4.0), JobTiming(1, 0, 4.0, 8.0)),
            worker_busy_seconds=(8.0, 0.0, 0.0),
        )

    def test_never_scheduled_workers_not_charged_barrier_downtime(self):
        report = self._oversized_report()
        assert report.barrier_downtime() == [2.0, 0.0, 0.0]

