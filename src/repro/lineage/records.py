"""Record schemas for the NN data commons.

The paper's commons (§2.3, §4.5) stores, per neural architecture:
epoch times, training accuracies, validation accuracies, FLOPS,
predictions, prediction-engine parameters, genomes, and architecture
information — plus per-epoch model checkpoints.  These dataclasses are
that schema; they serialize to plain JSON-able dicts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

__all__ = ["EpochRecord", "ModelRecord", "RunRecord"]

_SCALARS = frozenset((str, int, float, bool, type(None)))


def _plain(value):
    """Independent copy of a JSON-shaped value (anything else: ``deepcopy``)."""
    if isinstance(value, dict):
        return {k: v if type(v) in _SCALARS else _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(v if type(v) in _SCALARS else _plain(v) for v in value)
    return copy.deepcopy(value)


def _record_dict(record) -> dict:
    """``dataclasses.asdict(record)`` for records whose fields hold JSON.

    Same keys, same order, equally independent, without ``asdict``'s
    per-leaf ``deepcopy`` (publishing spent more time there than writing).
    """
    return {name: _plain(getattr(record, name)) for name in record.__dataclass_fields__}


@dataclass
class EpochRecord:
    """One training epoch of one model."""

    epoch: int
    validation_accuracy: float
    train_accuracy: float | None = None
    train_loss: float | None = None
    epoch_seconds: float | None = None
    prediction: float | None = None
    checkpoint: dict | None = None

    def to_dict(self) -> dict:
        return _record_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EpochRecord":
        return cls(**payload)


@dataclass
class ModelRecord:
    """The full record trail of one neural architecture.

    Attributes mirror the paper's commons fields; ``engine_parameters``
    is the Table-1 snapshot active during training.  ``architecture`` is
    kept empty for the published schema: the genome determines the
    decoded network, so nothing writes a layer table there.
    """

    model_id: int
    generation: int
    genome: dict
    flops: int | None = None
    fitness: float | None = None
    measured_fitness: float | None = None
    terminated_early: bool = False
    epochs_trained: int = 0
    max_epochs: int = 0
    fitness_history: list = field(default_factory=list)
    prediction_history: list = field(default_factory=list)
    epochs: list = field(default_factory=list)  # list[vars(EpochRecord)]
    architecture: list = field(default_factory=list)
    engine_parameters: dict | None = None
    engine_overhead_seconds: float = 0.0
    training_parameters: dict = field(default_factory=dict)
    # structured NumericalFault snapshot of the last numerical fault
    # event: the sanitizer aborted an attempt's training, or injection
    # raised a NaN (its snapshot's detail says "injected": true); None
    # when no attempt diverged or no fault policy routed the fault
    fault: dict | None = None
    # every fault/retry/quarantine decision the fault policy took for
    # this model (FaultEvent dicts, in order); empty for clean runs
    fault_events: list = field(default_factory=list)
    # whether the fault policy quarantined this model (fitness/flops are
    # then the policy's penalized objectives, not measurements)
    quarantined: bool = False
    # whether this model's outcome was reused from the evaluation cache
    # (same canonical genome already evaluated); cache_source is the
    # model id whose evaluation was copied
    cache_hit: bool = False
    cache_source: int | None = None
    # steady-state logical-clock position: the commit index at which
    # this model's result entered the population (equal to model_id by
    # construction); None for barrier-mode and historical records
    logical_tick: int | None = None
    # the network arena's peak scratch footprint for the evaluation;
    # arena_enabled is kept for the published schema and is always
    # arena_peak_bytes > 0 (False for surrogate-mode models)
    arena_enabled: bool = False
    arena_peak_bytes: int = 0
    # surrogate pre-ranking audit trail: the cross-architecture
    # prediction made when this model was bred, its rank against the
    # breeding population, the (possibly reduced) epoch budget the
    # allocator assigned, and why; all None/absent when the surrogate is
    # off or had not yet reached its cold-start floor
    predicted_fitness: float | None = None
    predicted_rank: int | None = None
    budget_assigned: int | None = None
    skip_reason: str | None = None

    def to_dict(self) -> dict:
        return _record_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelRecord":
        """Rebuild a record; its trail is held as a live tracker holds it.

        Each epoch entry becomes the attribute dict of an
        :class:`EpochRecord`, so the entries of a loaded commons share one
        key table (a third of the memory of JSON-decoded dicts) and an
        entry with a key the schema does not have fails here
        (``TypeError``), not at some later reader.
        """
        record = cls(**payload)
        record.epochs = [vars(EpochRecord(**entry)) for entry in record.epochs]
        return record

    @property
    def epochs_saved(self) -> int:
        """Epochs the *engine* saved by terminating inside the budget.

        ``max_epochs`` stores the effective budget the training loop ran
        under (the surrogate-reduced budget when one was assigned), so
        this never includes surrogate-skipped epochs — those are
        :attr:`epochs_skipped`.
        """
        return self.max_epochs - self.epochs_trained

    @property
    def epochs_skipped(self) -> int:
        """Epochs the *surrogate* skipped by reducing this model's budget.

        The gap between the run's full training budget (from
        ``training_parameters``) and the assigned budget; 0 for
        full-budget and quarantined models.
        """
        if self.budget_assigned is None or self.quarantined:
            return 0
        full = int(self.training_parameters.get("max_epochs", self.max_epochs))
        return max(full - min(int(self.budget_assigned), full), 0)


@dataclass
class RunRecord:
    """Metadata of one search run (the commons' top-level entry).

    ``workflow_config`` stores the complete
    :class:`~repro.workflow.interfaces.WorkflowConfig` document, making
    the run *replayable*: :func:`repro.lineage.replay.replay_run`
    re-executes it from the seed and verifies the record trails match.
    """

    run_id: str
    intensity: str
    nas_parameters: dict
    engine_parameters: dict | None
    n_models: int = 0
    total_epochs_trained: int = 0
    total_epochs_saved: int = 0
    total_epochs_skipped: int = 0
    notes: str = ""
    workflow_config: dict | None = None
    generation_stats: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return _record_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        return cls(**payload)
