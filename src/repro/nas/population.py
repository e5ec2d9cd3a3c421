"""Individuals and populations for the NAS.

An :class:`Individual` couples a genome with its evaluation outcome
(fitness, FLOPs, training trace) and identity metadata (model id,
generation) used by the lineage tracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plugin import TrainingResult
from repro.nas.genome import Genome

__all__ = ["Individual", "Population"]


@dataclass
class Individual:
    """One candidate architecture and everything measured about it.

    Attributes
    ----------
    genome:
        The NSGA-Net encoding.
    model_id:
        Unique, monotonically assigned id within a search run.
    generation:
        Generation in which this individual was created (0 = initial).
    fitness:
        Validation accuracy in percent, as reported to the NAS (the
        engine's converged prediction, or the last measured value).
    flops:
        Forward FLOPs per sample of the decoded network.
    result:
        Full Algorithm-1 trace (histories, epochs, overhead).
    epoch_seconds:
        Per-epoch wall times (measured or cost-modelled) for the epochs
        actually trained; the scheduler replays these.
    eval_attempt:
        Current evaluation attempt (0 = first try); the fault-tolerance
        layer bumps this on retries so evaluators derive re-seeded RNG
        children.
    quarantined:
        Whether the fault policy gave up on this candidate and assigned
        penalized objectives instead of measured ones.
    fault_events:
        Every fault/retry/quarantine decision taken for this candidate
        (dict snapshots of :class:`~repro.scheduler.faults.FaultEvent`).
    cache_hit:
        Whether this candidate's outcome was copied from the evaluation
        cache (a previously evaluated candidate with the same canonical
        genome) instead of being trained.
    cache_source:
        Model id of the candidate whose evaluation was reused when
        ``cache_hit`` is set.
    logical_tick:
        Position of this candidate on the steady-state logical clock:
        the commit index at which its result was folded into the
        population (equal to ``model_id`` by construction, since steady
        commits apply in submission order).  ``None`` for barrier-mode
        runs.
    arena_peak_bytes:
        Peak scratch footprint of the network's buffer arena
        (:mod:`repro.nn.arena`) for this evaluation; 0 when nothing was
        trained (surrogate mode).
    predicted_fitness:
        Cross-architecture surrogate prediction made when this candidate
        was bred (``None`` when the surrogate is off or had not yet
        reached its cold-start floor).
    predicted_rank:
        1-based rank of the prediction against the breeding population's
        measured fitnesses (1 = predicted better than every member).
    budget_assigned:
        Reduced epoch budget assigned by the surrogate allocator;
        ``None`` means the full ``max_epochs`` budget.
    skip_reason:
        Why the allocator flagged this candidate — ``"predicted_loser"``
        (probed at the reduced budget) or ``"exploration"`` (a predicted
        loser granted full budget by the exploration floor).  ``None``
        for predicted winners and unscored candidates.
    trace:
        The per-epoch trail of every evaluation attempt, failed attempts
        first: ``(epoch, fitness, prediction, epoch_stats, checkpoint)``
        per epoch (the last two ``None`` where nothing was trained or
        saved).  Evaluators append to it; lineage folds it into the
        model's record at commit, after which it is cleared.
    """

    genome: Genome
    model_id: int
    generation: int
    fitness: float | None = None
    flops: int | None = None
    result: TrainingResult | None = None
    epoch_seconds: list = field(default_factory=list)
    eval_attempt: int = 0
    quarantined: bool = False
    fault_events: list = field(default_factory=list)
    cache_hit: bool = False
    cache_source: int | None = None
    logical_tick: int | None = None
    arena_peak_bytes: int = 0
    predicted_fitness: float | None = None
    predicted_rank: int | None = None
    budget_assigned: int | None = None
    skip_reason: str | None = None
    trace: list = field(default_factory=list)

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None and self.flops is not None

    def objectives(self) -> tuple[float, float]:
        """Minimization objectives: (-accuracy, flops)."""
        if not self.evaluated:
            raise ValueError(f"model {self.model_id} has not been evaluated")
        return (-float(self.fitness), float(self.flops))

    def to_dict(self) -> dict:
        """Lineage-record form."""
        return {
            "model_id": self.model_id,
            "generation": self.generation,
            "genome": self.genome.to_dict(),
            "fitness": self.fitness,
            "flops": self.flops,
            "epoch_seconds": list(self.epoch_seconds),
            "result": self.result.to_dict() if self.result else None,
            "quarantined": self.quarantined,
            "fault_events": [dict(e) for e in self.fault_events],
            "cache_hit": self.cache_hit,
            "cache_source": self.cache_source,
            "logical_tick": self.logical_tick,
            "arena_peak_bytes": self.arena_peak_bytes,
            "predicted_fitness": self.predicted_fitness,
            "predicted_rank": self.predicted_rank,
            "budget_assigned": self.budget_assigned,
            "skip_reason": self.skip_reason,
        }


class Population:
    """An ordered collection of individuals with objective-array views."""

    def __init__(self, members: list[Individual] | None = None) -> None:
        self.members: list[Individual] = list(members or [])

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, idx):
        return self.members[idx]

    def append(self, individual: Individual) -> None:
        self.members.append(individual)

    def extend(self, individuals) -> None:
        self.members.extend(individuals)

    def objective_array(self) -> np.ndarray:
        """Stacked minimization objectives, shape ``(n, 2)``."""
        if not all(m.evaluated for m in self.members):
            missing = [m.model_id for m in self.members if not m.evaluated]
            raise ValueError(f"unevaluated members: {missing}")
        return np.array([m.objectives() for m in self.members], dtype=float)

    def subset(self, indices) -> "Population":
        """New population holding the members at ``indices`` (shared objects)."""
        return Population([self.members[i] for i in np.asarray(indices, dtype=int)])

    def best_fitness(self) -> float:
        """Highest validation accuracy in the population."""
        return max(float(m.fitness) for m in self.members if m.evaluated)
