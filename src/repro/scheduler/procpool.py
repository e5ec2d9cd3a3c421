"""Process-parallel evaluation stream with hard-kill timeouts.

:class:`ProcessWorkerPool` is the one real worker pool: an
:class:`~repro.nas.search.EvalStream` (``submit`` / ``settled`` /
``finish``) whose evaluations run on worker *processes*, each running
the whole Python training loop concurrently, which is what the paper's
multi-GPU resource manager assumes.  Each ``finish`` records a
:class:`~repro.scheduler.pool.PoolReport`; ``close`` releases the
workers.  Workers inherit the dataset's memory file, so the pool runs
on Linux only.

Worker start.  Each worker is a fresh ``python -c`` that sets the
parent's ``sys.path`` and imports this module from the package: it
never runs the caller's script, so a script needs no ``__main__`` guard
and a worker loads only the package and its factory's module.  It talks
to the parent over one end of a ``socket.socketpair`` wrapped in a
:class:`multiprocessing.connection.Connection`; the first message is
``(factory, dataset spec)``, and the dataset's memory file arrives as
an inherited descriptor (:mod:`repro.xfel.shm`).  Starting never
blocks: a slot takes work once its worker reports ``ready``, so the
first worker up gets the first job, and a worker that cannot build its
evaluator raises from the pool's next ``submit``/``settled``/``finish``.
After the close sentinel a worker unmaps the dataset, flushes its
streams and leaves with ``os._exit``, skipping interpreter teardown.

Division of labour (the key to bit-identical results across backends):

* **Workers** build their evaluator once by calling the pool's picklable
  *factory* — the workflow hands over
  :func:`~repro.workflow.orchestrator.evaluation_chain` bound to the
  run's :class:`~repro.workflow.interfaces.WorkflowConfig`, the same
  recipe the parent uses, with the dataset attached zero-copy — and
  then run exactly *one* evaluation attempt per dispatched
  :class:`EvalTask`, streaming back an :class:`EvalResult` with the
  :class:`~repro.core.plugin.TrainingResult` the attempt settled and
  the per-epoch trace it left on its individual.
* **The parent** owns every side effect: it appends each trace to the
  real individual, where lineage and the eval cache read it, and routes
  each failed attempt through the fault policy's
  :meth:`~repro.scheduler.faults.FaultPolicy.route`, the call
  :class:`~repro.nas.search.InlineStream` makes (retry at once →
  quarantine).

Because attempts run in killable processes, a policy timeout is a *hard
kill*: the worker of an overdue attempt is killed and its slot started
afresh, so a hung evaluation is truly reclaimed.  This is the only
backend that takes a timeout (DESIGN §8).  The deadline is judged on
each attempt's own time, measured by its worker: an attempt that
finishes past it while the parent is busy settles as a timeout too, its
trace dropped as a kill would drop it, so no verdict depends on the
worker count.  Failure settling matches the inline path: without a
policy a failed job raises from the ``settled`` call that delivers it,
and the jobs behind it keep running.  Submission order is FIFO: job *i*
is dispatched no later than job *i+1*, and a retry goes to the *front*
of the queue, as on the inline stream: a candidate finishes before new
ones start.
"""

from __future__ import annotations

import os
import pickle
import socket
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection

from repro.core.plugin import TrainingResult
from repro.nas.population import Individual
from repro.scheduler.faults import EvaluationTimeout, FaultPolicy
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

    ``result`` is the :class:`~repro.core.plugin.TrainingResult` a clean
    attempt settled, which the parent settles on the real individual.
    ``trace`` is the attempt's ``individual.trace`` — the entries the
    in-process path would have appended to the real individual.  A
    failed attempt, or one that returned without settling a result,
    carries the epochs measured *before* the fault plus the pickled
    exception in ``error``.  ``seconds`` is the attempt's duration on
    the worker's own stopwatch, which the parent holds against the
    policy timeout.
    """

    result: TrainingResult | None = None
    trace: tuple = ()
    error: bytes | None = None
    seconds: float = 0.0

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
        self._mappings: list = []
        attached = None
        if dataset is not None:
            attached, self._mappings = attach_dataset(dataset)
        self.evaluator = factory(attached)

    def close(self) -> None:
        """Drop the evaluator, and with it the views, then unmap the dataset."""
        self.evaluator = None
        for mapping in self._mappings:
            mapping.close()

    def run(self, task: EvalTask) -> EvalResult:
        individual = Individual(
            genome=task.genome,
            model_id=task.model_id,
            generation=task.generation,
            eval_attempt=task.attempt,
            budget_assigned=task.budget,
        )
        watch = Stopwatch().start()
        try:
            self.evaluator.evaluate(individual)
            if individual.result is None:
                raise RuntimeError(
                    f"model {task.model_id} attempt {task.attempt} returned without a result"
                )
        except Exception as exc:  # a4nn: noqa(NUM001) -- transported to the parent, which classifies and routes it
            return EvalResult(
                trace=tuple(individual.trace), error=_encode_error(exc), seconds=watch.stop()
            )
        return EvalResult(individual.result, tuple(individual.trace), seconds=watch.stop())


#: what a worker runs: ``argv`` is the socket's descriptor, then ``sys.path``
_BOOT = (
    "import sys; sys.path[:] = sys.argv[2:]; "
    "from repro.scheduler.procpool import _worker_main; _worker_main(int(sys.argv[1]))"
)


def _worker_main(fd: int) -> None:
    """Worker-process entry: build the evaluator, serve tasks, exit fast."""
    conn = connection.Connection(fd)
    runtime = None
    try:
        recipe = conn.recv_bytes()
        try:
            runtime = _WorkerRuntime(*pickle.loads(recipe))
        except Exception as exc:  # a4nn: noqa(NUM001) -- reported to the parent as the reply to its recipe
            conn.send(("init_error", f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("ready", None))
            while (task := conn.recv()) is not None:
                conn.send(runtime.run(task))
    except (EOFError, OSError):
        pass  # the parent is gone: nothing is left to serve
    if runtime is not None:
        runtime.close()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


class _Job:
    """Parent-side state of one individual's evaluation across attempts."""

    __slots__ = ("individual", "order", "first_start", "attempt_start", "deadline", "error")

    def __init__(self, individual: Individual, order: int) -> None:
        self.individual = individual
        self.order = order
        self.first_start = None    # episode-clock time of the first dispatch
        self.attempt_start = 0.0   # episode-clock time of the current dispatch
        self.deadline = None       # episode-clock hard-kill deadline of the attempt
        self.error = None          # what settled() raises for it (no fault policy)


class _Episode:
    """Scheduling state of one open episode (first ``submit`` to ``finish``).

    The clock starts at the episode's first dispatch, so a worker still
    starting when the episode opens is not on it.
    """

    def __init__(self, n_workers: int) -> None:
        self.clock = Stopwatch()
        self.dispatched = False
        self.queue: deque = deque()               # jobs waiting for a worker
        self.settled_jobs: deque = deque()        # jobs waiting for settled()
        self.timings: dict[int, JobTiming] = {}   # by job order
        self.busy = [0.0] * n_workers
        self.n_submitted = 0
        self.n_settled = 0


class _Worker:
    """Parent-side handle to one worker process: starting until ``ready``."""

    def __init__(self, recipe: bytes, dataset: SharedDatasetSpec | None, index: int) -> None:
        ours, theirs = socket.socketpair()
        with theirs:
            fds = (theirs.fileno(),) if dataset is None else (theirs.fileno(), dataset.fd)
            self.process = subprocess.Popen(
                [sys.executable, "-c", _BOOT, str(theirs.fileno()), *map(str, sys.path)],
                pass_fds=fds,
            )
        self.conn = connection.Connection(ours.detach())
        self.conn.send_bytes(recipe)
        self.index = index
        self.ready = False
        self.startup = Stopwatch().start()
        self.job: _Job | None = None

    def alive(self) -> bool:
        return self.process.poll() is None

    def greet(self) -> None:
        """Read the reply to the recipe; raises if the worker cannot serve."""
        try:
            tag, payload = self.conn.recv()
        except (EOFError, OSError):
            tag, payload = "init_error", f"exited with code {self.process.wait()}"
        if tag != "ready":
            raise RuntimeError(f"worker {self.index} failed to initialize: {payload}")
        self.ready = True

    def kill(self) -> None:
        self.conn.close()
        self.process.kill()
        self.process.wait()


class ProcessWorkerPool:
    """FIFO evaluation stream over ``n_workers`` worker processes.

    Parameters
    ----------
    factory:
        Picklable callable every worker calls once as ``factory(dataset)``
        to build its evaluator (anything with ``evaluate(individual)``):
        ``dataset`` is the attached shared dataset or ``None``.  The
        workflow passes ``functools.partial(evaluation_chain, config)``.
        A worker imports it by module name, so it cannot live in the
        caller's ``__main__``.
    n_workers:
        Concurrent evaluation processes (the paper's GPU count).
    dataset:
        Optional :class:`~repro.xfel.shm.SharedDatasetSpec` each worker
        inherits and maps before calling ``factory``.
    policy:
        Optional :class:`~repro.scheduler.faults.FaultPolicy` applied
        *in the parent*: the same decisions and events as on
        :class:`~repro.nas.search.InlineStream`, plus the timeout it
        refuses, which kills an overdue attempt's worker and starts its
        slot afresh.
    arena:
        Optional :class:`~repro.xfel.shm.SharedArena` this pool owns;
        released in :meth:`close` after the workers have exited.
    startup_timeout:
        Seconds a worker may take to report ``ready``.
    """

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
        self._timeout = None if policy is None else policy.timeout_seconds
        self.arena = arena
        self.startup_timeout = float(startup_timeout)
        self.reports: list[PoolReport] = []
        self.n_killed = 0
        # pickled once: an unpicklable factory fails here, not in a worker
        self._recipe = pickle.dumps((factory, dataset), protocol=pickle.HIGHEST_PROTOCOL)
        self._workers: list[_Worker | None] = [None] * self.n_workers
        self._closed = False
        self._broken: RuntimeError | None = None
        self._stream: _Episode | None = None

    # -- worker lifecycle -------------------------------------------------------

    def _start_missing(self) -> None:
        """Start a worker in every empty slot, and in one whose idle worker died.

        Never waits: a slot takes work once its worker reports ``ready``.
        """
        for slot, worker in enumerate(self._workers):
            if worker is not None and worker.ready and worker.job is None and not worker.alive():
                worker.kill()  # reap it and close our end
                worker = None
            if worker is None:
                self._workers[slot] = _Worker(self._recipe, self.dataset, slot)

    def _break(self, worker: _Worker, exc: RuntimeError) -> None:
        """A worker could not start: the pool raises ``exc`` from now on."""
        worker.kill()
        self._workers[worker.index] = None
        self._broken = exc
        raise exc

    def _kill(self, worker: _Worker) -> None:
        """Hard-kill a worker (timed-out attempt); the slot restarts lazily."""
        worker.kill()
        self._workers[worker.index] = None
        self.n_killed += 1
        _LOG.info("hard-killed worker %d (timeout)", worker.index)

    def alive_workers(self) -> int:
        """Worker processes currently running (leak check for tests)."""
        return sum(1 for worker in self._workers if worker is not None and worker.alive())

    def close(self) -> None:
        """Stop every worker and release the dataset's memory file (idempotent).

        A pool broken by a worker's start-up failure abandons its open
        episode instead of draining it.
        """
        if self._closed:
            return
        if self._broken is None:
            self.finish()
        self._stream = None
        self._closed = True
        # every sentinel first, so the workers exit concurrently (one still
        # starting reads it after its recipe)
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(None)  # graceful sentinel
            except OSError:  # pragma: no cover - worker already gone
                pass
        for slot, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.process.wait(5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - sentinel ignored
                worker.process.kill()
                worker.process.wait()
            worker.conn.close()
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
        individual = job.individual
        if self.policy is None:
            job.error = exc
        elif self.policy.route(individual, individual.eval_attempt, exc):
            individual.eval_attempt += 1
            # front of the queue: finish this candidate before starting new
            # ones, as the inline stream does
            self._stream.queue.appendleft(job)
            return
        self._settle(job, worker_index, end)

    def _timed_out(self, job: _Job) -> EvaluationTimeout:
        return EvaluationTimeout(
            f"evaluation of model {job.individual.model_id} attempt "
            f"{job.individual.eval_attempt} exceeded {self._timeout}s"
        )

    def _settle_result(self, worker: _Worker, result: EvalResult) -> None:
        job, end = self._release(worker)
        if self._timeout is not None and result.seconds > self._timeout:
            # overdue by its worker's watch, read late: settled as the
            # kill would have settled it, trace dropped (the worker is
            # idle, so it stays)
            self._route_fault(job, worker.index, self._timed_out(job), end)
            return
        individual = job.individual
        # a failed attempt's epochs stay on the trail, as in process
        individual.trace.extend(result.trace)
        if result.error is not None:
            self._route_fault(job, worker.index, result.exception(), end)
            return
        individual.settle(result.result)
        self._settle(job, worker.index, end)

    def _settle_lost(self, worker: _Worker, exc: Exception) -> None:
        """The attempt will never deliver (timed out, or its worker died)."""
        job, end = self._release(worker)
        self._kill(worker)
        self._route_fault(job, worker.index, exc, end)

    # -- dispatch loop ----------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand queued jobs to free workers, preserving submission order."""
        state = self._stream
        queue, clock = state.queue, state.clock
        if not queue:
            return
        self._start_missing()
        for worker in self._workers:
            if not queue:
                return
            if not worker.ready or worker.job is not None:
                continue
            if not state.dispatched:
                state.dispatched = True
                clock.start()
            job = queue.popleft()
            start = clock.elapsed()
            if job.first_start is None:
                job.first_start = start
            job.attempt_start = start
            job.deadline = None if self._timeout is None else start + self._timeout
            worker.job = job
            worker.conn.send(
                EvalTask(
                    model_id=job.individual.model_id,
                    generation=job.individual.generation,
                    attempt=job.individual.eval_attempt,
                    genome=job.individual.genome,
                    budget=job.individual.budget_assigned,
                )
            )

    def _wait_and_settle(self) -> None:
        """Block until a worker replies or a deadline passes.

        A reply is a starting worker's ``ready`` (or its start-up
        failure, which breaks the pool) or an attempt's result.
        """
        clock = self._stream.clock
        workers = [w for w in self._workers if w is not None]
        starting = [w for w in workers if not w.ready]
        inflight = [w for w in workers if w.job is not None]
        if not starting and not inflight:
            return  # nothing can reply: waiting on no connection blocks forever
        waits = [max(self.startup_timeout - w.startup.elapsed(), 0.0) for w in starting]
        waits += [
            max(w.job.deadline - clock.elapsed(), 0.0)
            for w in inflight
            if w.job.deadline is not None
        ]
        ready = connection.wait([w.conn for w in starting + inflight], min(waits, default=None))
        for conn in ready:
            worker = next(w for w in workers if w.conn is conn)
            if not worker.ready:
                try:
                    worker.greet()
                except RuntimeError as exc:
                    self._break(worker, exc)
                continue
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                job = worker.job
                self._settle_lost(
                    worker,
                    RuntimeError(
                        f"worker process died while evaluating model "
                        f"{job.individual.model_id} attempt {job.individual.eval_attempt}"
                    ),
                )
                continue
            self._settle_result(worker, payload)
        for worker in starting:
            if not worker.ready and worker.startup.elapsed() > self.startup_timeout:
                self._break(worker, RuntimeError(
                    f"worker {worker.index} did not come up within {self.startup_timeout:g}s"
                ))
        now = clock.elapsed()
        for worker in inflight:
            job = worker.job
            if job is not None and job.deadline is not None and job.deadline <= now:
                self._settle_lost(worker, self._timed_out(job))

    def _pump(self) -> None:
        if self._broken is not None:
            raise self._broken
        self._dispatch()
        self._wait_and_settle()

    # -- the stream seam --------------------------------------------------------

    def submit(self, individual: Individual) -> None:
        """Queue one evaluation (FIFO dispatch order).

        Opens an episode lazily on first use, starting any missing
        worker; dispatches immediately so a ready worker picks the job
        up without waiting for the consumer to call :meth:`settled`.
        """
        if self._closed:
            raise RuntimeError("ProcessWorkerPool is closed")
        if self._broken is not None:
            raise self._broken
        if self._stream is None:
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
            jobs=tuple(state.timings[i] for i in sorted(state.timings)),
            worker_busy_seconds=tuple(state.busy),
        )
        self.reports.append(report)
        return report
