"""Wall-time simulation of a completed search on an N-GPU cluster.

Takes the epoch durations in the record trails of every evaluated
network (real measurements in real mode, cost-model draws in surrogate
mode) and replays them through FIFO scheduling under the release rule
the search ran under, yielding the wall time the paper plots in Figure 9
for 1 and 4 GPUs.

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

from repro.lineage.records import ModelRecord
from repro.nas.search import NSGANetConfig

__all__ = ["WallTimeReport", "fifo_schedule", "simulate_walltime"]


@dataclass(frozen=True)
class WallTimeReport:
    """Simulated wall-clock outcome for one search on one pool size.

    Attributes
    ----------
    n_gpus:
        Pool size.
    wall_seconds:
        Makespan of the schedule.
    busy_seconds:
        Aggregate GPU compute time.
    idle_seconds:
        Aggregate GPU downtime (barrier or breeding-lag effect).
    utilization:
        ``busy / (makespan * n_gpus)``.
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


def _job_seconds(record: ModelRecord) -> float | None:
    """A model's training seconds, or ``None`` when it held no worker.

    The sum of its committed attempt's epoch durations, the last
    ``epochs_trained`` of its trail (failed attempts' epochs lead it): the
    prediction engine's in-situ seconds are wall-clock measurements of the
    host that ran the search, so they stay out, and a sampled run's
    schedule is a function of its seed.  Quarantined models contributed no
    completed training, and zero-budget surrogate skips never occupied a
    worker at all.
    """
    trained = record.epochs_trained
    if record.quarantined or (record.budget_assigned == 0 and not trained):
        return None
    seconds = record.epochs.column("epoch_seconds")[len(record.epochs) - trained :]
    if not trained or len(seconds) != trained or None in seconds:
        raise ValueError(f"model {record.model_id}: {trained} trained epochs lack durations")
    return sum(seconds)


def _waits_for(records: Sequence[ModelRecord], nas: NSGANetConfig) -> list[int]:
    """The release rule ``nas`` ran under, as :func:`fifo_schedule` reads it.

    Barrier: a generation waits for every model before it.  Steady:
    offspring ``g`` is submitted once ``max(1, g - lag + 1)`` models have
    committed, exactly as ``NSGANet._run_steady`` pumps its submissions.
    """
    if nas.evolution == "steady":
        lag = nas.steady_lag
        return [
            0 if g < nas.population_size else max(1, g - lag + 1)
            for g in range(len(records))
        ]
    first: dict[int, int] = {}
    return [first.setdefault(r.generation, g) for g, r in enumerate(records)]


def simulate_walltime(
    records: Sequence[ModelRecord], nas: NSGANetConfig, n_gpus: int
) -> WallTimeReport:
    """Replay a search's training workload on an ``n_gpus`` pool.

    ``records`` are every model's record trail in model-id order;
    ``nas`` holds the ``evolution`` and the resolved ``steady_lag`` the
    search ran under (:meth:`~repro.workflow.interfaces.
    WorkflowConfig.effective_nas`).  A steady ``nas`` whose lag is still
    ``None`` raises :class:`ValueError`: the lag the run used is not in it.
    """
    if nas.evolution == "steady" and nas.steady_lag is None:
        raise ValueError(
            "a steady nas needs its resolved steady_lag: pass "
            "WorkflowConfig.effective_nas(), not WorkflowConfig.nas"
        )
    seconds = [_job_seconds(r) for r in records]
    placed, wall, busy = fifo_schedule(seconds, n_gpus, _waits_for(records, nas))
    capacity = wall * n_gpus
    return WallTimeReport(
        n_gpus=n_gpus,
        wall_seconds=wall,
        busy_seconds=busy,
        idle_seconds=capacity - busy,
        utilization=busy / capacity if capacity > 0 else 0.0,
        total_epochs=sum(r.epochs_trained for r, s in zip(records, seconds) if s is not None),
        placements=tuple((r.model_id, *p) for r, p in zip(records, placed) if p),
    )
