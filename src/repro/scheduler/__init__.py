"""Workflow resource manager (Ray substitute).

FIFO dynamic scheduling of per-network training jobs onto accelerators
(paper §2.5), in two forms: a deterministic discrete-event simulator
that replays recorded epoch durations on an N-GPU pool
(:mod:`repro.scheduler.simulator`), and real worker pools for machines
with actual parallelism — threads (:mod:`repro.scheduler.pool`) or
spawned processes with a shared-memory dataset and hard-kill timeouts
(:mod:`repro.scheduler.procpool`).  The
FLOPs→seconds cost model (:mod:`repro.scheduler.costmodel`) calibrates
simulated epoch durations to the paper's single-V100 wall times.
"""

from repro.scheduler.costmodel import PAPER_TRAIN_IMAGES, EpochCostModel
from repro.scheduler.faults import (
    EvaluationTimeout,
    FaultEvent,
    FaultInjectingEvaluator,
    FaultInjectionConfig,
    FaultPolicy,
    FaultTolerantEvaluator,
    InjectedFault,
)
from repro.scheduler.fifo import (
    Job,
    JobPlacement,
    ScheduleResult,
    schedule_generation,
    schedule_run,
)
from repro.scheduler.pool import FifoWorkerPool, JobTiming, PoolReport, WorkerPool
from repro.scheduler.procpool import EvalResult, EvalTask, ProcessWorkerPool
from repro.scheduler.resources import Gpu, GpuPool
from repro.scheduler.simulator import WallTimeReport, jobs_by_generation, simulate_walltime

__all__ = [
    "PAPER_TRAIN_IMAGES",
    "EpochCostModel",
    "EvaluationTimeout",
    "FaultEvent",
    "FaultInjectingEvaluator",
    "FaultInjectionConfig",
    "FaultPolicy",
    "FaultTolerantEvaluator",
    "InjectedFault",
    "Job",
    "JobPlacement",
    "ScheduleResult",
    "schedule_generation",
    "schedule_run",
    "FifoWorkerPool",
    "JobTiming",
    "PoolReport",
    "WorkerPool",
    "EvalResult",
    "EvalTask",
    "ProcessWorkerPool",
    "Gpu",
    "GpuPool",
    "WallTimeReport",
    "jobs_by_generation",
    "simulate_walltime",
]
