"""Process-parallel evaluation backend: parity, hard kills, FIFO, shm.

Covers the ISSUE-5 acceptance criteria: every backend publishes
bit-identical lineage records and cache statistics on a seeded mini
search (both evolution modes, eval cache on and off), hung candidates
are hard-killed within the policy timeout with the worker respawned, no
worker processes leak past ``close()``, and submission order stays FIFO
under randomized per-job delays on both the thread and process pools.

The pool's factory keeps the direct-pool tests cheap: a module-level
factory (picklable across the ``spawn`` boundary) that ignores the
worker's dataset builds a scripted evaluator
inside the worker, so the dispatch / timeout / retry machinery is
exercised without training anything.  Workflow runs hand the pool the
orchestrator's own ``evaluation_chain`` instead.
"""

import functools
import json
import multiprocessing as mp
import pickle
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.nas import Individual, random_genome
from repro.nas.evalcache import MemoizingStream
from repro.nas.search import EvalStream, NSGANet, NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.scheduler.faults import (
    FaultInjectionConfig,
    FaultPolicy,
    FaultTolerantEvaluator,
)
from repro.scheduler.pool import FifoWorkerPool, JobTiming, PoolReport, WorkerPool
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

    def __init__(self, hang_ids=(), fail_ids=(), delay_scale=0.0, result=None):
        self.hang_ids = set(hang_ids)
        self.fail_ids = set(fail_ids)
        self.delay_scale = delay_scale
        self.result = result

    def evaluate(self, individual):
        mid = individual.model_id
        if mid in self.hang_ids:
            time.sleep(60.0)
        if mid in self.fail_ids and individual.eval_attempt == 0:
            raise RuntimeError(f"boom {mid}")
        if self.delay_scale:
            # pseudo-random per-job delay, reproducible in any process
            time.sleep(((mid * 7919) % 5) * self.delay_scale)
        individual.fitness = 50.0 + mid
        individual.flops = 1000 + mid
        individual.result = self.result
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
    return ScriptedEvaluator(fail_ids=(0,), delay_scale=0.01, result={"proxy": True})


def make_pool(factory, n_workers=2, **kwargs):
    return ProcessWorkerPool(factory, n_workers, **kwargs)


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
        result = EvalResult(model_id=3, attempt=0, fitness=81.5, flops=7)
        assert pickle.loads(pickle.dumps(result)) == result

    def test_result_transports_exception(self):
        from repro.scheduler.procpool import _encode_error

        result = EvalResult(
            model_id=0, attempt=0, error=_encode_error(RuntimeError("boom"))
        )
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
            attached, handles = attach_dataset(spec)
            for name in ("x_train", "y_train", "x_test", "y_test"):
                original = getattr(tiny_dataset, name)
                view = getattr(attached, name)
                assert np.array_equal(view, original)
                assert view.dtype == original.dtype
                assert not view.flags.writeable
            with pytest.raises(ValueError):
                attached.x_train[0] = 0.0
            assert attached.n_classes == tiny_dataset.n_classes
            assert attached.image_size == tiny_dataset.image_size
            for handle in handles:
                handle.close()
        finally:
            arena.close()

    def test_spec_is_tiny_regardless_of_payload(self, tiny_dataset):
        spec, arena = share_dataset(tiny_dataset)
        try:
            # the whole point of shm: the picklable handle stays O(1)
            assert len(pickle.dumps(spec)) < 2048
            assert spec.x_train.nbytes == tiny_dataset.x_train.nbytes
        finally:
            arena.close()

    def test_arena_close_is_idempotent(self, tiny_dataset):
        _, arena = share_dataset(tiny_dataset)
        assert len(arena) == 4
        arena.close()
        assert len(arena) == 0
        arena.close()  # second close is a no-op


class TestProcessPoolDirect:
    def test_satisfies_worker_pool_protocol(self):
        pool = make_pool(delay_factory)
        thread_pool = FifoWorkerPool(ScriptedEvaluator())
        assert isinstance(pool, WorkerPool) and isinstance(pool, EvalStream)
        assert isinstance(thread_pool, WorkerPool) and isinstance(thread_pool, EvalStream)
        pool.close()

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
            assert report.backend == "process"
            assert report.n_jobs == 6 and report.n_workers == 2
            assert [j.job_id for j in report.jobs] == list(range(6))
            # FIFO under unequal delays: job i starts no later than job i+1
            starts = [j.start_seconds for j in report.jobs]
            assert starts == sorted(starts)
            assert report.busy_seconds > 0
            assert 0.0 < report.utilization <= 1.0
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
        # workers tear down concurrently: close costs the slowest teardown,
        # not the sum of them
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
            worker.process.join = recording("join", worker.index, worker.process.join)
        pool.close()
        kinds = [kind for kind, _ in calls]
        assert kinds[:3] == ["send"] * 3 and set(kinds[3:]) == {"join"}
        assert {index for kind, index in calls if kind == "join"} == {0, 1, 2}
        assert all(worker.process.exitcode is not None for worker in workers)
        assert pool.alive_workers() == 0 and len(arena) == 0
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.x_train.name)

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

    def test_multiple_errors_raise_exception_group(self, rng):
        pool = make_pool(flaky_pair_factory, n_workers=2)
        try:
            with pytest.raises(ExceptionGroup) as excinfo:
                run_generation(pool, make_individuals(rng, 5))
            assert sorted(str(e) for e in excinfo.value.exceptions) == [
                "boom 1",
                "boom 3",
            ]
        finally:
            pool.close()

    def test_policy_retries_transient_failure(self, rng):
        pool = make_pool(
            flaky_pair_factory,
            n_workers=2,
            policy=FaultPolicy(max_retries=1, backoff_seconds=0.0),
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


class TestHardKill:
    def test_hang_is_killed_within_timeout_and_worker_respawned(self, rng):
        pool = make_pool(
            hang_factory,
            n_workers=2,
            policy=FaultPolicy(
                max_retries=1, backoff_seconds=0.0, timeout_seconds=0.5
            ),
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
            # the attempts ran in killable processes: nothing leaked
            assert all(
                e["timeout_leaked"] is False
                for ind in individuals
                for e in ind.fault_events
            )
        finally:
            pool.close()
        assert pool.alive_workers() == 0

    def test_thread_path_timeout_leaks_by_contrast(self, rng):
        # the thread backend cannot kill a thread: the same
        # timeout decision carries timeout_leaked=True and the shadow
        # thread shows up in the leak accounting until it drains
        wrapped = FaultTolerantEvaluator(
            _ShortHang(), FaultPolicy(max_retries=0, timeout_seconds=0.05)
        )
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert ind.quarantined
        assert ind.fault_events[0]["kind"] == "timeout"
        assert ind.fault_events[0]["timeout_leaked"] is True
        assert wrapped.n_leaked_threads() >= 1
        time.sleep(0.7)  # the abandoned attempt finishes on its own
        assert wrapped.n_leaked_threads() == 0


class _ShortHang:
    max_epochs = 1

    def evaluate(self, individual):
        time.sleep(0.5)
        individual.fitness = 1.0
        individual.flops = 1
        return individual


class TestFifoOrderThreadBackend:
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_randomized_delays_preserve_submission_order(self, rng, n_workers):
        pool = FifoWorkerPool(ScriptedEvaluator(delay_scale=0.01), n_workers=n_workers)
        individuals = make_individuals(rng, 8)
        run_generation(pool, individuals)
        [report] = pool.reports
        assert report.backend == "thread"
        assert [j.job_id for j in report.jobs] == [i.model_id for i in individuals]
        starts = [j.start_seconds for j in report.jobs]
        assert starts == sorted(starts)


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


def run_trail(result):
    """Everything that must be bit-identical across backends."""
    archive = sorted(
        (i.model_id, i.fitness, i.flops, i.cache_hit, i.cache_source)
        for i in result.search.archive
    )
    records = {
        model_id: (
            [
                (e["epoch"], e["validation_accuracy"], e.get("prediction"))
                for e in record.epochs
            ],
            [
                (e["attempt"], e["kind"], e["action"])
                for e in (record.fault_events or [])
            ],
            record.quarantined,
        )
        for model_id, record in result.tracker.records.items()
    }
    return archive, records


FIXTURES = Path(__file__).parent / "fixtures"

#: thread at one worker is the inline loop: no pool, no report
BACKENDS = (("thread", 1), ("thread", 2), ("process", 2))


def baseline_config(evolution, backend, n_workers, eval_cache):
    """``fixtures/make_pr8_baseline.py``'s search: 2 nodes per phase, so most
    generations contain duplicates of candidates still in flight."""
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=3,
            max_epochs=8,
            nodes_per_phase=2,
            evolution=evolution,
            # one logical clock for every worker count
            steady_lag=2 if evolution == "steady" else None,
        ),
        engine=EngineConfig(e_pred=8),
        mode="surrogate",
        seed=11,
        run_id="pr8-baseline",
        backend=backend,
        n_workers=n_workers,
        eval_cache=eval_cache,
    )


PR8_BASELINE = json.loads((FIXTURES / "lineage_pr8_baseline.json").read_text())


def without_predictor_keys(trails):
    """The fixture predates the surrogate allocator's four record fields."""
    added = ("predicted_fitness", "predicted_rank", "budget_assigned", "skip_reason")
    return [{k: v for k, v in t.items() if k not in added} for t in trails]


@functools.lru_cache(maxsize=None)
def baseline_run(evolution, backend, n_workers, eval_cache):
    """(lineage without wall-clock fields, cache stats, report backends)."""
    orchestrator = A4NNOrchestrator(
        baseline_config(evolution, backend, n_workers, eval_cache)
    )
    result = orchestrator.run()
    assert orchestrator.pool is None  # closed, reports kept
    trails = [r.to_dict() for r in result.tracker.all_records()]
    for trail in trails:
        trail["engine_overhead_seconds"] = None
    stats = orchestrator.memoizer.cache.stats() if eval_cache else None
    return trails, stats, [r.backend for r in orchestrator.pool_reports]


class TestBackendParitySurrogate:
    @pytest.mark.parametrize("eval_cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("backend, n_workers", BACKENDS)
    @pytest.mark.parametrize("evolution", ["barrier", "steady"])
    def test_backends_agree(
        self, evolution, backend, n_workers, eval_cache
    ):
        trails, stats, reports = baseline_run(evolution, backend, n_workers, eval_cache)
        reference, reference_stats, _ = baseline_run(evolution, *BACKENDS[0], eval_cache)
        assert trails == reference
        assert stats == reference_stats
        if eval_cache:
            assert any(t["cache_hit"] for t in trails)
            if evolution == "barrier":
                assert without_predictor_keys(trails) == PR8_BASELINE
        else:
            # the cache changes who trains, never what anyone measured
            cached, _, _ = baseline_run(evolution, *BACKENDS[0], True)
            unshared = [dict(t, cache_hit=False, cache_source=None) for t in cached]
            assert trails == unshared
        # one report per generation behind a barrier, one per steady run,
        # none without a pool; the run closed its workers
        episodes = 0 if (backend, n_workers) == BACKENDS[0] else 3 if evolution == "barrier" else 1
        assert reports == [backend] * episodes
        assert not [
            p for p in mp.active_children() if p.name.startswith("a4nn-eval-worker")
        ]

    def test_fault_injection_parity(self):
        def faulty(backend, n_workers):
            return surrogate_config(
                backend,
                n_workers,
                eval_cache=False,
                seed=3,
                faults=FaultPolicy(
                    max_retries=1, backoff_seconds=0.0, timeout_seconds=2.0
                ),
                fault_injection=FaultInjectionConfig(
                    rate=0.3, modes=("crash", "hang", "nan"), hang_seconds=30.0
                ),
            )

        r_inline = A4NNOrchestrator(faulty("thread", 1)).run()
        r_process = A4NNOrchestrator(faulty("process", 2)).run()
        assert run_trail(r_process) == run_trail(r_inline)
        assert r_process.search.n_quarantined == r_inline.search.n_quarantined


def real_config(backend, n_workers, **kwargs):
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=2,
            max_epochs=3,
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


@functools.lru_cache(maxsize=None)
def inline_and_process(**kwargs):
    """The same real-mode run inline and on two worker processes."""
    inline = A4NNOrchestrator(real_config("thread", 1, **kwargs))
    process = A4NNOrchestrator(real_config("process", 2, **kwargs))
    return inline, inline.run(), process, process.run()


class TestBackendParityReal:
    def test_shared_memory_training_matches_serial(self):
        inline, r_inline, process, r_process = inline_and_process()
        assert run_trail(r_process) == run_trail(r_inline)
        assert process.memoizer.cache.stats() == inline.memoizer.cache.stats()
        # run() closed the pool, which also released the shm arena
        assert process.pool is None
        assert not [
            p for p in mp.active_children() if p.name.startswith("a4nn-eval-worker")
        ]

    def test_sanitizers_reach_the_workers(self):
        # an untripped sanitizer and write guard change no number: workers
        # build with both switched on and publish the inline trails
        _, r_inline, _, r_process = inline_and_process(sanitize=True, sanitize_writes=True)
        assert run_trail(r_process) == run_trail(r_inline)

    def test_legacy_recipe_reaches_the_workers(self):
        # float64 and model keying both change every measurement, so a
        # worker that missed either would publish a different trail
        legacy = dict(dtype="float64", rng_keying="model", eval_cache=False)
        _, r_inline, process, r_process = inline_and_process(**legacy)
        _, r_default, _, _ = inline_and_process()
        assert run_trail(r_process) == run_trail(r_inline)
        assert run_trail(r_inline) != run_trail(r_default)
        assert process.memoizer is None


class _StubBase:
    """Minimal memoization base: constant-keyed."""

    def __init__(self, key=("k",)):
        self.key = key

    def memo_key(self, individual):
        return self.key


class TestRegisterRemote:
    """Leaders evaluated in worker processes count and prime like local ones."""

    def _drain(self, rng, n, *, first_id=0, key=("k",), **pool_kwargs):
        pool = make_pool(first_fails_factory, n_workers=2, **pool_kwargs)
        memo = MemoizingStream(_StubBase(key), pool, wait_for_leader=True)
        individuals = make_individuals(rng, n, first_id=first_id)
        try:
            run_generation(memo, individuals)
        finally:
            pool.close()
        return memo, individuals

    def test_clean_leader_primes_cache_and_counts_miss(self, rng):
        memo, (leader, follower) = self._drain(rng, 2, first_id=1)
        assert memo.cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert memo.cache.peek(("k",)).source_model_id == leader.model_id
        assert follower.cache_hit and follower.cache_source == leader.model_id
        assert follower.fitness == leader.fitness

    def test_faulted_leader_counts_miss_but_never_caches(self, rng):
        memo, (faulted,) = self._drain(rng, 1, policy=FaultPolicy(max_retries=1))
        assert faulted.evaluated and faulted.eval_attempt == 1
        assert memo.cache.stats() == {"entries": 0, "hits": 0, "misses": 1}

    def test_unkeyed_leader_is_ignored(self, rng):
        memo, _ = self._drain(rng, 2, first_id=1, key=None)
        assert memo.cache.stats() == {"entries": 0, "hits": 0, "misses": 0}


class TestSecondWave:
    """A leader that settles uncacheable promotes its first follower, which
    leads the rest: the same flags and counters on every backend (the batch
    memoizer's second wave raced by worker count)."""

    @pytest.mark.parametrize("backend, n_workers", [("thread", 1), ("thread", 2), ("process", 2)])
    def test_hits_do_not_depend_on_backend_or_worker_count(self, rng, backend, n_workers):
        policy = FaultPolicy(max_retries=0)  # model 0 is quarantined
        if backend == "process":
            pool = make_pool(first_fails_factory, n_workers=n_workers, policy=policy)
        else:
            pool = FifoWorkerPool(
                FaultTolerantEvaluator(first_fails_factory(), policy), n_workers=n_workers
            )
        memo = MemoizingStream(_StubBase(), pool, wait_for_leader=True)
        individuals = make_individuals(rng, 3)
        try:
            run_generation(memo, individuals)
        finally:
            pool.close()
        assert individuals[0].quarantined
        assert [i.cache_hit for i in individuals] == [False, False, True]
        assert [i.cache_source for i in individuals] == [None, None, 1]
        assert memo.cache.stats() == {"entries": 1, "hits": 1, "misses": 2}
        assert len(pool.reports) == 1  # the promoted follower joined the open episode


class TestWorkflowConfigBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="backend"):
            WorkflowConfig(backend="mpi")

    def test_stored_serial_backend_loads_as_thread(self):
        # "serial" was a one-worker thread pool: new configs refuse it,
        # documents that stored it run on threads
        with pytest.raises(ValidationError, match="backend"):
            WorkflowConfig(backend="serial")
        payload = dict(WorkflowConfig().to_dict(), backend="serial")
        assert WorkflowConfig.from_dict(payload).backend == "thread"

    def test_process_cannot_checkpoint_models(self):
        with pytest.raises(ValidationError, match="checkpoint"):
            WorkflowConfig(backend="process", checkpoint_models=True)

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
            backend="process",
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
        assert report.idle_seconds == 3.0
        assert report.utilization == pytest.approx(0.85)
        payload = report.to_dict()
        assert payload["barrier_downtime_seconds"] == [3.0, 0.0]
        assert [j["job_id"] for j in payload["jobs"]] == [0, 1, 2]


class TestStreamingSeam:
    """The submit/settled/finish seam steady-state evolution runs on."""

    def test_thread_stream_settles_all_and_reports_once(self, rng):
        pool = FifoWorkerPool(ScriptedEvaluator(delay_scale=0.005), n_workers=2)
        individuals = make_individuals(rng, 5)
        for ind in individuals:
            pool.submit(ind)
        settled = [pool.settled() for _ in range(5)]
        assert sorted(ind.model_id for ind in settled) == list(range(5))
        assert all(ind.fitness == 50.0 + ind.model_id for ind in settled)
        report = pool.finish()
        assert report.n_jobs == 5
        assert report.backend == "thread"
        assert pool.reports == [report]
        assert pool.finish() is None  # idempotent once drained
        pool.close()

    def test_settled_without_submissions_raises(self):
        pool = FifoWorkerPool(ScriptedEvaluator(), n_workers=2)
        with pytest.raises(RuntimeError, match="no evaluations in flight"):
            pool.settled()

    def test_stream_error_propagates_at_settle(self, rng):
        pool = FifoWorkerPool(ScriptedEvaluator(fail_ids=(0,)), n_workers=1)
        pool.submit(make_individuals(rng, 1)[0])
        with pytest.raises(RuntimeError, match="boom 0"):
            pool.settled()
        pool.close()

    def test_close_flushes_open_stream_report(self, rng):
        pool = FifoWorkerPool(ScriptedEvaluator(), n_workers=2)
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
            assert report.backend == "process"
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
            backend="thread",
            jobs=(JobTiming(0, 0, 0.0, 4.0), JobTiming(1, 0, 4.0, 8.0)),
            worker_busy_seconds=(8.0, 0.0, 0.0),
        )

    def test_never_scheduled_workers_not_charged_barrier_downtime(self):
        report = self._oversized_report()
        assert report.barrier_downtime() == [2.0, 0.0, 0.0]
        assert report.idle_workers == 2
        payload = report.to_dict()
        assert payload["idle_workers"] == 2
        assert payload["barrier_downtime_seconds"] == [2.0, 0.0, 0.0]

