"""Real concurrent execution of candidate evaluations.

The discrete-event simulator (:mod:`repro.scheduler.simulator`) answers
"what would this schedule cost on N GPUs"; this module actually *runs*
evaluations concurrently on N workers in FIFO submission order, for
users with real parallel hardware.  Worker threads stand in for
accelerators: each evaluation occupies one worker from start to finish.

A pool is an :class:`~repro.nas.search.EvalStream`: ``submit`` queues an
evaluation, ``settled`` blocks for the next one to complete (in any
order; a failed one raises there while the jobs behind it keep
running), ``finish`` closes the scheduling episode and records its
:class:`PoolReport` — one per generation under barrier evolution, one
per run under steady evolution.

NumPy releases the GIL inside its kernels, so thread workers give real
overlap for the BLAS-heavy training inner loops; the pure-Python parts
of the loop (im2col indexing, optimizer steps, engine fits) still
serialize.  :class:`~repro.scheduler.procpool.ProcessWorkerPool` is the
drop-in sibling that sidesteps the GIL entirely — both implement the
:class:`WorkerPool` protocol and record the same enriched
:class:`PoolReport` (per-job start/end timestamps, per-worker busy
seconds), so barrier downtime is computable for every backend.  A thread
pool runs whatever evaluator it is given: wrap it in a
:class:`~repro.scheduler.faults.FaultTolerantEvaluator` (the
orchestrator does, when the config carries a fault policy) and faulty
candidates are retried and, if unrecoverable, quarantined with penalized
objectives instead of raising.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.nas.evaluation import Evaluator
from repro.nas.population import Individual
from repro.utils.timing import Stopwatch

__all__ = ["JobTiming", "PoolReport", "WorkerPool", "FifoWorkerPool"]


@dataclass(frozen=True)
class JobTiming:
    """Measured placement of one evaluation on one worker.

    Timestamps are seconds relative to the episode's first submission,
    so timings from different backends are directly comparable.  A job
    that was retried keeps one timing spanning every attempt (the worker
    slot was occupied the whole time, as on a real accelerator).
    """

    job_id: int
    worker: int
    start_seconds: float
    end_seconds: float

    @property
    def duration(self) -> float:
        return self.end_seconds - self.start_seconds

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "worker": self.worker,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
        }


@dataclass(frozen=True)
class PoolReport:
    """Measured outcome of one scheduling episode (first ``submit`` to ``finish``).

    Attributes
    ----------
    n_workers:
        Worker slots the episode ran on.
    wall_seconds:
        Submit-to-finish wall time of the whole episode.
    n_jobs:
        Evaluations submitted.
    backend:
        ``"thread"`` or ``"process"``.
    jobs:
        Per-job :class:`JobTiming` entries in submission order.
    worker_busy_seconds:
        Seconds each worker spent executing jobs (len ``n_workers``).
    """

    n_workers: int
    wall_seconds: float
    n_jobs: int
    backend: str = "thread"
    jobs: tuple = ()
    worker_busy_seconds: tuple = ()

    @property
    def busy_seconds(self) -> float:
        """Total worker-seconds spent executing jobs."""
        return float(sum(self.worker_busy_seconds))

    @property
    def idle_seconds(self) -> float:
        """Total worker-seconds spent idle (includes barrier downtime)."""
        return max(self.n_workers * self.wall_seconds - self.busy_seconds, 0.0)

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool over the episode."""
        capacity = self.n_workers * self.wall_seconds
        return self.busy_seconds / capacity if capacity > 0 else 0.0

    @property
    def idle_workers(self) -> int:
        """Workers that never ran a job (oversized pool, not barrier loss)."""
        scheduled = {job.worker for job in self.jobs}
        return sum(1 for w in range(self.n_workers) if w not in scheduled)

    def barrier_downtime(self) -> list:
        """Seconds each worker idled between its last job and the barrier.

        This is the paper's generation-boundary downtime: when
        ``population % n_workers != 0`` some workers finish early and
        must wait for the slowest one before the next generation can be
        bred.  A worker that never ran a job is *not* charged barrier
        downtime — its loss is a sizing problem, reported separately via
        :attr:`idle_workers` — so oversized pools don't overstate
        barrier loss.
        """
        last_end: dict[int, float] = {}
        for job in self.jobs:
            last_end[job.worker] = max(last_end.get(job.worker, 0.0), job.end_seconds)
        return [
            max(self.wall_seconds - last_end[w], 0.0) if w in last_end else 0.0
            for w in range(self.n_workers)
        ]

    def to_dict(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "jobs": [job.to_dict() for job in self.jobs],
            "worker_busy_seconds": list(self.worker_busy_seconds),
            "barrier_downtime_seconds": self.barrier_downtime(),
            "idle_workers": self.idle_workers,
            "utilization": self.utilization,
        }


@runtime_checkable
class WorkerPool(Protocol):
    """What the orchestrator requires of an execution backend.

    On top of the :class:`~repro.nas.search.EvalStream` seam the search
    drives (``submit`` / ``settled`` / ``on_commit`` / ``finish``), a
    pool keeps the reports of its finished episodes and owns worker
    resources that must be released.
    """

    n_workers: int
    reports: list

    def close(self) -> None:
        """Release worker resources (idempotent)."""


class FifoWorkerPool:
    """FIFO evaluation stream over ``n_workers`` parallel worker threads.

    Parameters
    ----------
    evaluator:
        Backend whose ``evaluate`` runs one individual to completion.
    n_workers:
        Concurrent evaluations (the paper's GPU count).

    Notes
    -----
    Submission order is preserved (FIFO): job *i* starts no later than
    job *i+1*.  ``ThreadPoolExecutor`` guarantees this for a fixed
    worker count because its work queue is FIFO.
    """

    backend = "thread"

    def __init__(self, evaluator: Evaluator, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.evaluator = evaluator
        self.n_workers = int(n_workers)
        self.reports: list[PoolReport] = []
        self._stream: _ThreadStreamState | None = None

    def _run_job(self, individual: Individual, state: "_ThreadStreamState") -> None:
        """Evaluate one individual on a worker thread, timed against the episode clock."""
        with state.lock:
            worker = state.slots.setdefault(threading.get_ident(), len(state.slots))
        start = state.clock.elapsed()
        error: Exception | None = None
        try:
            self.evaluator.evaluate(individual)
        except Exception as exc:  # a4nn: noqa(NUM001) -- not swallowed: handed to the consumer through settled()
            error = exc
        end = state.clock.elapsed()
        with state.lock:
            state.timings.append(JobTiming(individual.model_id, worker, start, end))
            state.busy[worker] += end - start
        state.results.put((individual, error))

    def submit(self, individual: Individual) -> None:
        """Queue one evaluation (FIFO dispatch order); opens an episode if none is."""
        if self._stream is None:
            self._stream = _ThreadStreamState(self.n_workers)
        state = self._stream
        state.n_submitted += 1
        state.executor.submit(self._run_job, individual, state)

    def settled(self) -> Individual:
        """Block for the next completed evaluation, in any order."""
        state = self._stream
        if state is None or state.n_settled >= state.n_submitted:
            raise RuntimeError("no evaluations in flight")
        individual, error = state.results.get()
        state.n_settled += 1
        if error is not None:
            raise error
        return individual

    def on_commit(self, individual: Individual) -> None:
        """Nothing to do: the pool holds no commit-ordered state."""

    def finish(self) -> PoolReport | None:
        """Close the episode and record its report (``None`` when nothing ran)."""
        state = self._stream
        if state is None:
            return None
        self._stream = None
        state.executor.shutdown(wait=True)
        state.clock.stop()
        report = PoolReport(
            n_workers=self.n_workers,
            wall_seconds=state.clock.total,
            n_jobs=state.n_submitted,
            backend="thread",
            jobs=tuple(sorted(state.timings, key=lambda t: t.job_id)),
            worker_busy_seconds=tuple(state.busy),
        )
        self.reports.append(report)
        return report

    def close(self) -> None:
        """Release stream workers; thread workers hold nothing else."""
        self.finish()

    @property
    def total_wall_seconds(self) -> float:
        """Measured wall time across all finished episodes."""
        return sum(r.wall_seconds for r in self.reports)


class _ThreadStreamState:
    """Mutable bookkeeping of one open :meth:`FifoWorkerPool.submit` episode."""

    def __init__(self, n_workers: int) -> None:
        self.executor = ThreadPoolExecutor(max_workers=n_workers)
        self.clock = Stopwatch().start()
        self.results: queue.Queue = queue.Queue()
        self.timings: list[JobTiming] = []
        self.slots: dict[int, int] = {}
        self.busy = [0.0] * n_workers
        self.lock = threading.Lock()
        self.n_submitted = 0
        self.n_settled = 0
