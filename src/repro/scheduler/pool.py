"""Measured placement of a worker pool's evaluations.

The discrete-event simulator (:mod:`repro.scheduler.simulator`) answers
"what would this schedule cost on N GPUs"; a real pool
(:class:`~repro.scheduler.procpool.ProcessWorkerPool`) runs evaluations
concurrently on N worker processes and records what each scheduling
episode actually cost as a :class:`PoolReport` — one per generation
under barrier evolution, one per run under steady evolution — made of
per-job :class:`JobTiming` entries and per-worker busy seconds, so
barrier downtime is computable from a measured run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["JobTiming", "PoolReport"]


@dataclass(frozen=True)
class JobTiming:
    """Measured placement of one evaluation on one worker.

    Timestamps are seconds relative to the episode's first dispatch.  A
    job that was retried keeps one timing spanning every attempt (the
    worker slot was occupied the whole time, as on a real accelerator).
    """

    job_id: int
    worker: int
    start_seconds: float
    end_seconds: float

    @property
    def duration(self) -> float:
        return self.end_seconds - self.start_seconds


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
    jobs:
        Per-job :class:`JobTiming` entries in submission order.
    worker_busy_seconds:
        Seconds each worker spent executing jobs (len ``n_workers``).
    """

    n_workers: int
    wall_seconds: float
    n_jobs: int
    jobs: tuple = ()
    worker_busy_seconds: tuple = ()

    @property
    def busy_seconds(self) -> float:
        """Total worker-seconds spent executing jobs."""
        return float(sum(self.worker_busy_seconds))

    def barrier_downtime(self) -> list:
        """Seconds each worker idled between its last job and the barrier.

        This is the paper's generation-boundary downtime: when
        ``population % n_workers != 0`` some workers finish early and
        must wait for the slowest one before the next generation can be
        bred.  A worker that never ran a job is *not* charged barrier
        downtime — its loss is a sizing problem, not barrier loss — so
        oversized pools don't overstate it.
        """
        last_end: dict[int, float] = {}
        for job in self.jobs:
            last_end[job.worker] = max(last_end.get(job.worker, 0.0), job.end_seconds)
        return [
            max(self.wall_seconds - last_end[w], 0.0) if w in last_end else 0.0
            for w in range(self.n_workers)
        ]
