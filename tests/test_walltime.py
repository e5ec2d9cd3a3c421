"""Simulated wall time: the barrier numbers pinned, the steady rule held to a reference.

Three references stand behind :func:`repro.scheduler.fifo_schedule`:

- ``fixtures/walltime_barrier.json``: every :class:`WallTimeReport` field
  and placement of two seeded barrier searches at 1, 2, 4 and 8 GPUs,
  written by the generation-barrier scheduler the function replaced;
- that scheduler itself (``GpuPool`` + ``schedule_run``, kept below as an
  oracle), drawn against by Hypothesis;
- an event-by-event replay of ``NSGANet._run_steady`` for the steady rule.
"""

from __future__ import annotations

import heapq
import json
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.scheduler import fifo_schedule, simulate_walltime
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "walltime_barrier.json"

GPUS = (1, 2, 4, 8)

# two seeded barrier searches: one with the engine stopping models early,
# one with zero-budget surrogate skips and quarantined crashes (jobs that
# hold no worker)
BARRIER_SEARCHES = {
    "engine_seed21": WorkflowConfig(
        nas=NSGANetConfig(
            population_size=7, offspring_per_generation=5, generations=5, max_epochs=10
        ),
        engine=EngineConfig(e_pred=10),
        mode="surrogate",
        seed=21,
    ),
    "skips_and_faults_seed42": WorkflowConfig(
        nas=NSGANetConfig(
            population_size=7, offspring_per_generation=5, generations=8, max_epochs=10
        ),
        engine=None,
        mode="surrogate",
        surrogate=SurrogateConfig(probe_epochs=0, min_records=4, explore_every=100, band=0.5),
        faults=FaultPolicy(max_retries=0),
        fault_injection=FaultInjectionConfig(rate=0.1, modes=("crash",)),
        seed=42,
    ),
}


def walltime_barrier() -> dict:
    """Every report field and placement, floats as ``repr``, per search and pool size."""
    pinned = {}
    for name, config in BARRIER_SEARCHES.items():
        records = A4NNOrchestrator(config).run().tracker.all_records()
        pinned[name] = {}
        for n in GPUS:
            report = simulate_walltime(records, config.nas, n)
            pinned[name][str(n)] = {
                "n_gpus": report.n_gpus,
                "wall_seconds": repr(report.wall_seconds),
                "busy_seconds": repr(report.busy_seconds),
                "idle_seconds": repr(report.idle_seconds),
                "utilization": repr(report.utilization),
                "total_epochs": report.total_epochs,
                "placements": [
                    [job, gpu, repr(start), repr(finish)]
                    for job, gpu, start, finish in report.placements
                ],
            }
    return pinned


def test_barrier_reports_match_the_pinned_fixture():
    assert walltime_barrier() == json.loads(FIXTURE.read_text())


# -- the generation-barrier scheduler fifo_schedule replaced ------------------


@dataclass
class Gpu:
    index: int
    available_at: float = 0.0
    busy_seconds: float = 0.0
    jobs: list = field(default_factory=list)

    def run(self, job_id, start: float, duration: float) -> float:
        assert start >= self.available_at and duration >= 0
        finish = start + duration
        self.available_at = finish
        self.busy_seconds += duration
        self.jobs.append(job_id)
        return finish


class GpuPool:
    def __init__(self, n_gpus: int) -> None:
        self.gpus = [Gpu(i) for i in range(n_gpus)]

    def next_free(self) -> Gpu:
        return min(self.gpus, key=lambda g: (g.available_at, g.index))

    def advance_all(self, time: float) -> None:
        for gpu in self.gpus:
            if gpu.available_at < time:
                gpu.available_at = time


def schedule_run(generations: list, n_gpus: int) -> tuple[list, float, float]:
    """FIFO within generations, barriers between: ``(placements, makespan, busy)``.

    ``generations`` holds ``(job_id, epoch_seconds)`` pairs.
    """
    pool = GpuPool(n_gpus)
    placements, generation_ends = [], []
    release = 0.0
    for jobs in generations:
        pool.advance_all(release)
        finishes = []
        for job_id, epoch_seconds in jobs:
            gpu = pool.next_free()
            start = gpu.available_at
            finish = gpu.run(job_id, start, sum(epoch_seconds))
            placements.append((job_id, gpu.index, start, finish))
            finishes.append(finish)
        release = max(finishes, default=release)
        generation_ends.append(release)
    makespan = max(generation_ends, default=0.0)
    return placements, makespan, sum(g.busy_seconds for g in pool.gpus)


job_epochs = st.one_of(
    st.none(), st.lists(st.floats(0.0, 50.0), min_size=0, max_size=4)
)


@given(
    st.lists(st.lists(job_epochs, max_size=6), max_size=5),
    st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_barrier_placements_match_the_pool_oracle(spec, n_gpus):
    seconds, waits_for, generations = [], [], []
    for gen in spec:
        first = len(seconds)
        jobs = []
        for epochs in gen:
            if epochs is not None:
                jobs.append((len(seconds), tuple(epochs)))
            seconds.append(None if epochs is None else sum(epochs))
            waits_for.append(first)
        generations.append(jobs)
    placed, makespan, busy = fifo_schedule(seconds, n_gpus, waits_for)
    expected = schedule_run(generations, n_gpus)
    assert ([(g, *p) for g, p in enumerate(placed) if p], makespan, busy) == expected


# -- the steady rule ----------------------------------------------------------


def steady_waits(total: int, population_size: int, lag: int) -> list[int]:
    return [0 if g < population_size else max(1, g - lag + 1) for g in range(total)]


def steady_reference(seconds, n_workers: int, population_size: int, lag: int):
    """Commit and submit as ``NSGANet._run_steady`` does, one event at a time.

    A FIFO queue feeds the lowest-index idle worker; results settle as
    workers finish, commit strictly in model-id order, and after every
    commit each offspring ``g`` with ``max(1, g - lag + 1) <= committed``
    is submitted.  A ``None`` job holds no worker and is ready to commit
    the moment it is submitted.  Returns ``(worker, start, finish)`` per
    job and the makespan.
    """
    total = len(seconds)
    placements: list = [None] * total
    ready: set = set()
    queue: deque = deque()
    idle = list(range(n_workers))
    running: list = []
    now = makespan = 0.0
    committed = 0

    def submit(g: int) -> None:
        if seconds[g] is None:
            ready.add(g)
        else:
            queue.append(g)

    for g in range(min(population_size, total)):
        submit(g)
    next_submit = population_size
    while committed < total:
        while queue and idle:
            g, worker = queue.popleft(), idle.pop(0)
            placements[g] = (worker, now, now + seconds[g])
            heapq.heappush(running, (now + seconds[g], worker, g))
        if committed in ready:
            committed += 1
            while next_submit < total and max(1, next_submit - lag + 1) <= committed:
                submit(next_submit)
                next_submit += 1
            continue
        # every worker finishing at the next instant frees at once
        now = makespan = running[0][0]
        while running and running[0][0] == now:
            _, worker, g = heapq.heappop(running)
            ready.add(g)
            insort(idle, worker)
    return placements, makespan


def test_lag_at_least_total_releases_offspring_at_the_first_commit():
    # population 2, lag 10: offspring 2 and 3 wait for model 0's commit
    # at t = 5, although three of the four workers are free from t = 1
    placed, makespan, _ = fifo_schedule([5.0, 1.0, 1.0, 1.0], 4, steady_waits(4, 2, 10))
    assert placed == [(0, 0.0, 5.0), (1, 0.0, 1.0), (0, 5.0, 6.0), (1, 5.0, 6.0)]
    assert makespan == 6.0
    assert steady_reference([5.0, 1.0, 1.0, 1.0], 4, 2, 10) == (placed, makespan)


@given(
    st.lists(st.one_of(st.none(), st.floats(0.1, 50.0)), min_size=1, max_size=24),
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_steady_rule_matches_the_event_reference(seconds, population_size, n_workers, data):
    total = len(seconds)
    lag = data.draw(st.integers(1, total + 2), label="lag")
    placed, makespan, _ = fifo_schedule(
        seconds, n_workers, steady_waits(total, population_size, lag)
    )
    assert (placed, makespan) == steady_reference(seconds, n_workers, population_size, lag)


@pytest.fixture(scope="module")
def steady_run():
    config = WorkflowConfig(
        nas=NSGANetConfig(
            population_size=6,
            offspring_per_generation=6,
            generations=6,
            max_epochs=10,
            evolution="steady",
        ),
        engine=None,
        mode="surrogate",
        n_workers=2,
        surrogate=SurrogateConfig(probe_epochs=0, min_records=4, explore_every=100, band=0.5),
        n_gpus=(1, 4),
        seed=21,
    )
    return A4NNOrchestrator(config).run()


def test_a_steady_search_reports_the_schedule_it_ran(steady_run):
    """``walltime[4]`` of a steady run (lag = n_workers = 2) is its own schedule,
    not the makespan of pseudo-generation barriers it never had."""
    archive = steady_run.search.archive
    seconds = [
        None if m.quarantined or m.result is None else sum(m.epoch_seconds) for m in archive
    ]
    assert None in seconds  # zero-budget skips commit without a worker
    placed, makespan = steady_reference(seconds, 4, population_size=6, lag=2)
    report = steady_run.walltime[4]
    assert report.wall_seconds == makespan
    assert report.placements == tuple((g, *p) for g, p in enumerate(placed) if p)
    assert report.busy_seconds == pytest.approx(sum(s for s in seconds if s is not None))


def test_published_records_simulate_under_the_lag_the_run_resolved(steady_run):
    """The stored config's ``nas`` leaves the lag ``None``: simulating with it
    raises, and ``effective_nas()`` gives back the run's own report."""
    config = WorkflowConfig.from_dict(steady_run.config.to_dict())
    records = steady_run.tracker.all_records()
    assert config.nas.steady_lag is None
    with pytest.raises(ValueError, match="steady_lag"):
        simulate_walltime(records, config.nas, 4)
    assert config.effective_nas().steady_lag == config.n_workers
    for n, report in steady_run.walltime.items():
        assert simulate_walltime(records, config.effective_nas(), n) == report
