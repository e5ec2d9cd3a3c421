"""Workflow resource manager (Ray substitute).

FIFO dynamic scheduling of per-network training jobs onto accelerators
(paper §2.5), in two forms: one schedule function that replays recorded
epoch durations on an N-GPU pool under the release rule the search ran
under — the generation barrier or the steady breeding lag
(:mod:`repro.scheduler.simulator`) — and one real worker pool for
machines with actual parallelism: worker processes started from the
package, with an inherited memory-file dataset and hard-kill timeouts
(:mod:`repro.scheduler.procpool`), which records each scheduling
episode as a :class:`~repro.scheduler.pool.PoolReport`.  The
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
    InjectedFault,
)
from repro.scheduler.pool import JobTiming, PoolReport
from repro.scheduler.procpool import EvalResult, EvalTask, ProcessWorkerPool
from repro.scheduler.simulator import WallTimeReport, fifo_schedule, simulate_walltime

__all__ = [
    "PAPER_TRAIN_IMAGES",
    "EpochCostModel",
    "EvaluationTimeout",
    "FaultEvent",
    "FaultInjectingEvaluator",
    "FaultInjectionConfig",
    "FaultPolicy",
    "InjectedFault",
    "JobTiming",
    "PoolReport",
    "EvalResult",
    "EvalTask",
    "ProcessWorkerPool",
    "WallTimeReport",
    "fifo_schedule",
    "simulate_walltime",
]
