"""Process-parallel evaluation stream with hard-kill timeouts.

:class:`ProcessWorkerPool` is the drop-in sibling of
:class:`~repro.scheduler.pool.FifoWorkerPool` behind the same
:class:`~repro.scheduler.pool.WorkerPool` protocol and the same
``submit`` / ``settled`` / ``finish`` seam, backed by ``spawn``-context
worker *processes* instead of threads.  The thread pool only overlaps
the GIL-releasing BLAS kernels; worker processes run the whole Python
training loop concurrently, which is what the paper's multi-GPU resource
manager assumes.

Division of labour (the key to bit-identical results across backends):

* **Workers** build their evaluator once by calling the pool's picklable
  *factory* — the workflow hands over
  :func:`~repro.workflow.orchestrator.evaluation_chain` bound to the
  run's :class:`~repro.workflow.interfaces.WorkflowConfig`, the same
  recipe the parent uses, with the dataset attached zero-copy through
  :mod:`repro.xfel.shm` — and then run exactly *one* evaluation attempt
  per dispatched :class:`EvalTask`, streaming back an
  :class:`EvalResult` with the measurements and the per-epoch trace the
  attempt left on its individual.
* **The parent** owns every side effect: it appends each trace to the
  real individual, where lineage and the eval cache read it, and drives
  the same :class:`~repro.scheduler.faults.FaultRouter` as
  :class:`~repro.scheduler.faults.FaultTolerantEvaluator` from its
  dispatch queue (retry with backoff → quarantine).

Because attempts run in killable processes, a policy timeout is a *hard
kill*: the worker is terminated and respawned, so — unlike the thread
backend, whose abandoned shadow threads keep computing —
a hung evaluation is truly reclaimed (``FaultEvent.timeout_leaked`` is
always ``False`` here; see DESIGN §8).  Failure settling matches the
thread path: without a policy a failed job raises from the ``settled``
call that delivers it, and the jobs behind it keep running.  Submission
order is FIFO: job *i* is dispatched no later than job *i+1*, and a
retry goes to the *front* of the queue, mirroring the in-thread loop's
finish-this-candidate-first behaviour.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection

from repro.nas.population import Individual
from repro.scheduler.faults import EvaluationTimeout, FaultPolicy, FaultRouter
from repro.scheduler.pool import JobTiming, PoolReport
from repro.utils.logging import get_logger
from repro.utils.timing import Stopwatch
from repro.xfel.shm import SharedArena, SharedDatasetSpec, attach_dataset

__all__ = ["EvalTask", "EvalResult", "ProcessWorkerPool"]

_LOG = get_logger("scheduler.procpool")


@dataclass(frozen=True)
class EvalTask:
    """One evaluation attempt dispatched to a worker process.

    ``budget`` ships the surrogate allocator's (possibly reduced) epoch
    budget; the allocator itself — predictor state included — never
    leaves the parent process.
    """

    model_id: int
    generation: int
    attempt: int
    genome: object
    budget: int | None = None


@dataclass(frozen=True)
class EvalResult:
    """What a worker sends back for one attempt.

    ``trace`` is the attempt's ``individual.trace`` — the entries the
    in-process path would have appended to the real individual.  A
    failed attempt carries the epochs measured *before* the fault plus
    the pickled exception in ``error``.
    """

    model_id: int
    attempt: int
    fitness: float | None = None
    flops: int | None = None
    result: object = None
    epoch_seconds: tuple = ()
    trace: tuple = ()
    error: bytes | None = None
    arena_peak_bytes: int = 0

    def exception(self) -> Exception:
        """Decode the transported failure (only valid when ``error`` is set)."""
        return pickle.loads(self.error)


def _encode_error(exc: BaseException) -> bytes:
    """Pickle an exception, degrading to a summary when it won't survive."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)  # round-trip check: __reduce__ bugs surface here
        return payload
    except Exception:  # a4nn: noqa(NUM001) -- fallback keeps the fault routable; the original message is preserved
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


class _WorkerRuntime:
    """Worker-process side: the factory's evaluator over the attached dataset."""

    def __init__(self, factory, dataset: SharedDatasetSpec | None) -> None:
        self._shm_handles: list = []
        attached = None
        if dataset is not None:
            attached, self._shm_handles = attach_dataset(dataset)
        self.evaluator = factory(attached)

    def run(self, task: EvalTask) -> EvalResult:
        individual = Individual(
            genome=task.genome,
            model_id=task.model_id,
            generation=task.generation,
            eval_attempt=task.attempt,
            budget_assigned=task.budget,
        )
        try:
            self.evaluator.evaluate(individual)
        except Exception as exc:  # a4nn: noqa(NUM001) -- transported to the parent, which classifies and routes it
            return EvalResult(
                model_id=task.model_id,
                attempt=task.attempt,
                trace=tuple(individual.trace),
                error=_encode_error(exc),
            )
        return EvalResult(
            model_id=task.model_id,
            attempt=task.attempt,
            fitness=float(individual.fitness),
            flops=int(individual.flops),
            result=individual.result,
            epoch_seconds=tuple(individual.epoch_seconds),
            trace=tuple(individual.trace),
            arena_peak_bytes=int(individual.arena_peak_bytes),
        )


def _worker_main(conn, factory, dataset: SharedDatasetSpec | None) -> None:
    """Worker-process entry: handshake, then serve tasks until EOF/sentinel."""
    try:
        runtime = _WorkerRuntime(factory, dataset)
    except BaseException as exc:  # a4nn: noqa(NUM001) -- reported to the parent through the init handshake
        conn.send(("init_error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("ready", None))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        conn.send(runtime.run(task))
    conn.close()


class _Job:
    """Parent-side state of one individual's evaluation across attempts."""

    __slots__ = ("individual", "order", "attempt", "ready_at", "first_start",
                 "attempt_start", "deadline", "error")

    def __init__(self, individual: Individual, order: int) -> None:
        self.individual = individual
        self.order = order
        self.attempt = int(getattr(individual, "eval_attempt", 0))
        self.ready_at = 0.0        # episode-clock time the next attempt may start
        self.first_start = None    # episode-clock time of the first dispatch
        self.attempt_start = 0.0   # episode-clock time of the current dispatch
        self.deadline = None       # episode-clock hard-kill deadline of the attempt
        self.error = None          # what settled() raises for it (no fault policy)


class _Episode:
    """Scheduling state of one open episode (first ``submit`` to ``finish``)."""

    def __init__(self, n_workers: int) -> None:
        self.clock = Stopwatch().start()
        self.queue: deque = deque()               # jobs waiting for a worker
        self.settled_jobs: deque = deque()        # jobs waiting for settled()
        self.timings: dict[int, JobTiming] = {}   # by job order
        self.busy = [0.0] * n_workers
        self.n_submitted = 0
        self.n_settled = 0


class _Worker:
    """Parent-side handle to one spawned worker process."""

    def __init__(self, ctx, factory, dataset: SharedDatasetSpec | None, index: int) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, factory, dataset),
            name=f"a4nn-eval-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.index = index
        self.job: _Job | None = None

    def await_ready(self, timeout: float) -> None:
        """Block until the worker finishes building its evaluator chain."""
        if not self.conn.poll(timeout):
            raise RuntimeError(
                f"worker {self.index} did not come up within {timeout:.0f}s"
            )
        tag, payload = self.conn.recv()
        if tag != "ready":
            raise RuntimeError(f"worker {self.index} failed to initialize: {payload}")


class ProcessWorkerPool:
    """FIFO evaluation stream over ``n_workers`` spawned worker processes.

    Parameters
    ----------
    factory:
        Picklable callable every worker calls once as ``factory(dataset)``
        to build its evaluator (anything with ``evaluate(individual)``):
        ``dataset`` is the attached shared dataset or ``None``.  The
        workflow passes ``functools.partial(evaluation_chain, config)``.
    n_workers:
        Concurrent evaluation processes (the paper's GPU count).
    dataset:
        Optional :class:`~repro.xfel.shm.SharedDatasetSpec` each worker
        attaches before calling ``factory``.
    policy:
        Optional :class:`~repro.scheduler.faults.FaultPolicy` applied
        *in the parent* through a
        :class:`~repro.scheduler.faults.FaultRouter`: the same decisions
        and events as :class:`~repro.scheduler.faults.
        FaultTolerantEvaluator`, except that timeouts
        terminate-and-respawn the worker (hard kill).
    arena:
        Optional :class:`~repro.xfel.shm.SharedArena` this pool owns;
        released in :meth:`close` after the workers have exited.
    """

    backend = "process"

    def __init__(
        self,
        factory,
        n_workers: int = 1,
        *,
        dataset: SharedDatasetSpec | None = None,
        policy: FaultPolicy | None = None,
        arena: SharedArena | None = None,
        startup_timeout: float = 120.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.factory = factory
        self.dataset = dataset
        self.n_workers = int(n_workers)
        self.policy = policy
        # the attempts run in killable processes: a timeout terminates
        # them for real, so nothing keeps computing in the background
        self._router = (
            None if policy is None else FaultRouter(policy, timeouts_leak=False)
        )
        self.arena = arena
        self.startup_timeout = float(startup_timeout)
        self.reports: list[PoolReport] = []
        self.n_killed = 0
        self._ctx = mp.get_context("spawn")
        self._workers: list[_Worker | None] = [None] * self.n_workers
        self._closed = False
        self._stream: _Episode | None = None

    # -- worker lifecycle -------------------------------------------------------

    def _respawn(self, slot: int) -> _Worker:
        worker = _Worker(self._ctx, self.factory, self.dataset, slot)
        worker.await_ready(self.startup_timeout)
        self._workers[slot] = worker
        return worker

    def _ensure_workers(self) -> None:
        fresh = []
        for slot in range(self.n_workers):
            worker = self._workers[slot]
            if worker is None or not worker.process.is_alive():
                fresh.append(_Worker(self._ctx, self.factory, self.dataset, slot))
                self._workers[slot] = fresh[-1]
        budget = Stopwatch().start()
        for worker in fresh:
            worker.await_ready(max(self.startup_timeout - budget.elapsed(), 0.0))

    def _kill(self, worker: _Worker) -> None:
        """Hard-kill a worker (timed-out attempt); the slot respawns lazily."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        worker.process.terminate()
        worker.process.join(5.0)
        if worker.process.is_alive():  # pragma: no cover - terminate resisted
            worker.process.kill()
            worker.process.join(5.0)
        self._workers[worker.index] = None
        self.n_killed += 1
        _LOG.info("hard-killed worker %d (timeout)", worker.index)

    def alive_workers(self) -> int:
        """Worker processes currently running (leak check for tests)."""
        return sum(
            1
            for worker in self._workers
            if worker is not None and worker.process.is_alive()
        )

    def close(self) -> None:
        """Stop every worker and release the shared-memory arena (idempotent)."""
        if self._closed:
            return
        self.finish()
        self._closed = True
        # every sentinel first, so the workers tear down concurrently
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(None)  # graceful sentinel
            except (BrokenPipeError, OSError):  # pragma: no cover - worker already gone
                pass
        for slot, worker in enumerate(self._workers):
            if worker is None:
                continue
            worker.process.join(5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            self._workers[slot] = None
        if self.arena is not None:
            self.arena.close()

    # -- settling ---------------------------------------------------------------

    def _release(self, worker: _Worker) -> tuple[_Job, float]:
        """Take the finished attempt off its worker; the job and its end time."""
        state = self._stream
        job = worker.job
        worker.job = None
        end = state.clock.elapsed()
        state.busy[worker.index] += end - job.attempt_start
        return job, end

    def _settle(self, job: _Job, worker_index: int, end: float) -> None:
        state = self._stream
        state.timings[job.order] = JobTiming(
            job.individual.model_id, worker_index, job.first_start, end
        )
        state.settled_jobs.append(job)
        state.n_settled += 1

    def _route_fault(self, job: _Job, worker_index: int, exc: Exception, end: float) -> None:
        """Settle a failed attempt: raise later (no policy), retry, or quarantine."""
        state = self._stream
        individual = job.individual
        individual.eval_attempt = job.attempt
        if self._router is None:
            job.error = exc
            backoff = None
        else:
            backoff = self._router.route(individual, job.attempt, exc)
        if backoff is None:
            self._settle(job, worker_index, end)
            return
        job.attempt += 1
        job.ready_at = state.clock.elapsed() + backoff
        # front of the queue: finish this candidate before starting new
        # ones, like the in-thread retry loop
        state.queue.appendleft(job)

    def _settle_result(self, worker: _Worker, result: EvalResult) -> None:
        job, end = self._release(worker)
        individual = job.individual
        # a failed attempt's epochs stay on the trail, as in process
        individual.trace.extend(result.trace)
        if result.error is not None:
            self._route_fault(job, worker.index, result.exception(), end)
            return
        individual.eval_attempt = result.attempt
        individual.fitness = result.fitness
        individual.flops = result.flops
        individual.result = result.result
        individual.epoch_seconds = list(result.epoch_seconds)
        individual.arena_peak_bytes = result.arena_peak_bytes
        self._settle(job, worker.index, end)

    def _settle_lost(self, worker: _Worker, exc: Exception) -> None:
        """The attempt will never deliver (timed out, or its worker died)."""
        job, end = self._release(worker)
        self._kill(worker)
        self._route_fault(job, worker.index, exc, end)

    # -- dispatch loop ----------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand ready jobs to free workers, preserving submission order."""
        state = self._stream
        queue, clock = state.queue, state.clock
        for slot in range(self.n_workers):
            if not queue:
                return
            if queue[0].ready_at > clock.elapsed():
                return  # head in backoff; later jobs must not overtake it
            worker = self._workers[slot]
            if worker is not None and worker.job is not None:
                continue
            if worker is None or not worker.process.is_alive():
                worker = self._respawn(slot)
            job = queue.popleft()
            start = clock.elapsed()
            if job.first_start is None:
                job.first_start = start
            job.attempt_start = start
            timeout = self.policy.timeout_seconds if self.policy else None
            job.deadline = None if timeout is None else start + float(timeout)
            worker.job = job
            worker.conn.send(
                EvalTask(
                    model_id=job.individual.model_id,
                    generation=job.individual.generation,
                    attempt=job.attempt,
                    genome=job.individual.genome,
                    budget=job.individual.budget_assigned,
                )
            )

    def _wait_and_settle(self) -> None:
        """Block until an attempt ends, a deadline passes or a backoff elapses."""
        state = self._stream
        queue, clock = state.queue, state.clock
        inflight = [
            w for w in self._workers if w is not None and w.job is not None
        ]
        if not inflight:
            if queue:  # head is backing off; sleep toward its ready time
                time.sleep(min(max(queue[0].ready_at - clock.elapsed(), 0.0), 0.1))
            return
        waits = [
            max(w.job.deadline - clock.elapsed(), 0.0)
            for w in inflight
            if w.job.deadline is not None
        ]
        if queue and len(inflight) < self.n_workers:
            waits.append(max(queue[0].ready_at - clock.elapsed(), 0.0))
        ready = connection.wait([w.conn for w in inflight], min(waits) if waits else None)
        for conn in ready:
            worker = next(w for w in inflight if w.conn is conn)
            try:
                payload = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                job = worker.job
                self._settle_lost(
                    worker,
                    RuntimeError(
                        f"worker process died while evaluating model "
                        f"{job.individual.model_id} attempt {job.attempt}"
                    ),
                )
                continue
            self._settle_result(worker, payload)
        now = clock.elapsed()
        for worker in inflight:
            job = worker.job
            if job is not None and job.deadline is not None and job.deadline <= now:
                self._settle_lost(
                    worker,
                    EvaluationTimeout(
                        f"evaluation of model {job.individual.model_id} attempt "
                        f"{job.attempt} exceeded {self.policy.timeout_seconds}s"
                    ),
                )

    def _pump(self) -> None:
        self._dispatch()
        self._wait_and_settle()

    # -- the stream seam --------------------------------------------------------

    def submit(self, individual: Individual) -> None:
        """Queue one evaluation (FIFO dispatch order).

        Opens an episode lazily on first use; dispatches immediately so
        a free worker picks the job up without waiting for the consumer
        to call :meth:`settled`.
        """
        if self._closed:
            raise RuntimeError("ProcessWorkerPool is closed")
        if self._stream is None:
            self._ensure_workers()
            self._stream = _Episode(self.n_workers)
        state = self._stream
        state.queue.append(_Job(individual, state.n_submitted))
        state.n_submitted += 1
        self._dispatch()

    def settled(self) -> Individual:
        """Block for the next completed evaluation, in any order.

        Without a :class:`~repro.scheduler.faults.FaultPolicy`, the
        error of a failed job raises here (in settle order); with a
        policy, faults retry/quarantine instead.
        """
        state = self._stream
        if state is None or (
            not state.settled_jobs and state.n_settled >= state.n_submitted
        ):
            raise RuntimeError("no evaluations in flight")
        while not state.settled_jobs:
            self._pump()
        job = state.settled_jobs.popleft()
        if job.error is not None:
            raise job.error
        return job.individual

    def on_commit(self, individual: Individual) -> None:
        """Nothing to do: the pool holds no commit-ordered state."""

    def finish(self) -> PoolReport | None:
        """Drain the episode and record its report (``None`` when nothing ran)."""
        state = self._stream
        if state is None:
            return None
        while state.n_settled < state.n_submitted:
            self._pump()
        self._stream = None
        state.clock.stop()
        report = PoolReport(
            n_workers=self.n_workers,
            wall_seconds=state.clock.total,
            n_jobs=state.n_submitted,
            backend="process",
            jobs=tuple(state.timings[i] for i in sorted(state.timings)),
            worker_busy_seconds=tuple(state.busy),
        )
        self.reports.append(report)
        return report

    @property
    def total_wall_seconds(self) -> float:
        """Measured wall time across all finished episodes."""
        return sum(r.wall_seconds for r in self.reports)
