"""Wall-time simulation of a completed search on an N-GPU cluster.

Takes the per-epoch durations recorded for every evaluated network (real
measurements in real mode, cost-model draws in surrogate mode) and
replays them through FIFO scheduling under the release rule the search
ran under, yielding the wall time the paper plots in Figure 9 for 1 and
4 GPUs.

Paper §2.5: *"We leverage the scheduling algorithms of Ray and use its
first in, first out (FIFO) dynamic scheduling to assign models to GPUs
within a generation."*  Behind the generation barrier a generation
cannot start before every model of the previous one finished (selection
needs all fitnesses), so "some downtime may occur when not all GPUs are
used".  Steady evolution has no barrier but is not free-running either:
offspring ``g`` is bred at the commit of model ``g - steady_lag``, and
commits land in model-id order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.nas.population import Individual
from repro.nas.search import SearchResult

__all__ = ["WallTimeReport", "fifo_schedule", "simulate_walltime"]


@dataclass(frozen=True)
class WallTimeReport:
    """Simulated wall-clock outcome for one search on one pool size.

    Attributes
    ----------
    n_gpus:
        Pool size.
    wall_seconds:
        Makespan of the schedule (incl. prediction-engine overhead when
        supplied).
    busy_seconds:
        Aggregate GPU compute time.
    idle_seconds:
        Aggregate GPU downtime (barrier or breeding-lag effect).
    utilization:
        ``busy / (makespan * n_gpus)``.
    engine_overhead_seconds:
        Total prediction-engine time folded into the jobs.
    total_epochs:
        Epochs actually executed across all jobs.
    placements:
        ``(model_id, gpu, start, finish)`` of every job that held a GPU,
        in model-id order.
    """

    n_gpus: int
    wall_seconds: float
    busy_seconds: float
    idle_seconds: float
    utilization: float
    engine_overhead_seconds: float
    total_epochs: int
    placements: tuple = field(default=(), repr=False)

    @property
    def wall_hours(self) -> float:
        return self.wall_seconds / 3600.0


def fifo_schedule(
    seconds: Sequence[float | None], n_workers: int, waits_for: Sequence[int]
) -> tuple[list, float, float]:
    """Place jobs ``0 .. len(seconds) - 1``, in order, on ``n_workers`` workers.

    ``seconds[g]`` is job ``g``'s duration, or ``None`` for a model that
    held no worker (quarantined, or skipped at zero budget), which is
    done the moment it is released.  Job ``g`` is released once jobs
    ``0 .. waits_for[g] - 1`` have all finished (``0``: at t = 0; never
    more than ``g``) and starts on the worker minimising ``(max(free_at,
    release), index)``.

    Returns ``(worker, start, finish)`` per job (``None`` for a ``None``
    job), the makespan, and the busy seconds — accumulated per worker in
    placement order, then summed in worker order.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    free = [0.0] * n_workers
    busy = [0.0] * n_workers
    done = [0.0]  # done[k]: when jobs 0 .. k - 1 have all finished
    placements: list = []
    for duration, wait in zip(seconds, waits_for, strict=True):
        if duration is None:
            placements.append(None)
            done.append(done[-1])
            continue
        if duration < 0:
            raise ValueError(f"job {len(placements)} has a negative duration {duration}")
        release = done[wait]
        start, worker = min((max(at, release), i) for i, at in enumerate(free))
        finish = start + duration
        free[worker] = finish
        busy[worker] += duration
        placements.append((worker, start, finish))
        done.append(max(done[-1], finish))
    return placements, done[-1], sum(busy)


def _job_seconds(member: Individual, include_engine_overhead: bool) -> float | None:
    """A member's training seconds, or ``None`` when it held no worker.

    Engine overhead is amortized into each job's epochs (the engine runs
    in situ, on the same resources, between epochs — Algorithm 1), so it
    lengthens the schedule exactly where it occurred.  Quarantined
    members contributed no completed training, and zero-budget surrogate
    skips never occupied a worker at all.
    """
    if member.quarantined or (member.result is None and member.budget_assigned == 0):
        return None
    if member.result is None:
        raise ValueError(f"model {member.model_id} has no training result")
    epoch_seconds = [float(s) for s in member.epoch_seconds]
    if len(epoch_seconds) != member.result.epochs_trained:
        raise ValueError(
            f"model {member.model_id}: {len(epoch_seconds)} epoch durations "
            f"for {member.result.epochs_trained} trained epochs"
        )
    if include_engine_overhead and epoch_seconds:
        per_epoch = member.result.engine_overhead_seconds / len(epoch_seconds)
        epoch_seconds = [s + per_epoch for s in epoch_seconds]
    return sum(epoch_seconds)


def _waits_for(result: SearchResult) -> list[int]:
    """The release rule ``result.config`` ran under, as :func:`fifo_schedule` reads it.

    Barrier: a generation waits for every model before it.  Steady:
    offspring ``g`` is submitted once ``max(1, g - lag + 1)`` models have
    committed, exactly as ``NSGANet._run_steady`` pumps its submissions.
    """
    config = result.config
    if config is not None and config.evolution == "steady":
        lag = config.steady_lag or 1
        return [
            0 if g < config.population_size else max(1, g - lag + 1)
            for g in range(len(result.archive))
        ]
    first: dict[int, int] = {}
    return [first.setdefault(m.generation, g) for g, m in enumerate(result.archive)]


def simulate_walltime(
    result: SearchResult, n_gpus: int, *, include_engine_overhead: bool = True
) -> WallTimeReport:
    """Replay a search's training workload on an ``n_gpus`` pool.

    The release rule is the one the search ran under: ``result.config``'s
    ``evolution`` and (resolved) ``steady_lag``.
    """
    archive = result.archive
    seconds = [_job_seconds(m, include_engine_overhead) for m in archive]
    placed, wall, busy = fifo_schedule(seconds, n_gpus, _waits_for(result))
    capacity = wall * n_gpus
    overhead = sum(m.result.engine_overhead_seconds for m in archive if m.result)
    return WallTimeReport(
        n_gpus=n_gpus,
        wall_seconds=wall,
        busy_seconds=busy,
        idle_seconds=capacity - busy,
        utilization=busy / capacity if capacity > 0 else 0.0,
        engine_overhead_seconds=overhead if include_engine_overhead else 0.0,
        total_epochs=sum(
            m.result.epochs_trained for m, s in zip(archive, seconds) if s is not None
        ),
        placements=tuple((m.model_id, *p) for m, p in zip(archive, placed) if p),
    )
