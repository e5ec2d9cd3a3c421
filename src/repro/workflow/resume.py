"""Resuming interrupted searches from the data commons.

A paper-scale NAS run takes tens of (simulated) hours; real deployments
get pre-empted.  Every record trail lands in the commons as its model
commits, so a killed run leaves its trails behind, and every stochastic
draw derives from the root seed plus stable keys (generation number,
model id), so a resumed run is the search run again from its seed.

A model inside the resumable prefix of the published trails
(:func:`rebuild_search_state`) takes its outcome from its record instead
of being evaluated: the orchestrator's breed hook calls
:func:`individual_from_record` once the surrogate allocator has scored
the candidate, and the candidate then takes the path a zero-budget skip
takes — it reaches no evaluator and commits like a live model.  At that
commit its published record and file are kept as they are, and the
record primes the evaluation cache and feeds the allocator exactly where
the live run's evaluation did.  Models past the prefix are evaluated and
written as they were.

A commons this seed does not reproduce fails loudly: the fill refuses a
record whose genome, or whose surrogate decisions as recomputed here,
differ from what the resumed search bred.
"""

from __future__ import annotations

from itertools import repeat

from repro.core.plugin import TrainingResult
from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord
from repro.nas.population import Individual
from repro.utils.logging import get_logger

__all__ = ["individual_from_record", "rebuild_search_state", "resume_workflow"]

_LOG = get_logger("workflow.resume")

#: What the search and the allocator decide at breed time; a record must agree.
_BRED_FIELDS = (
    "generation",
    "genome",
    "predicted_fitness",
    "predicted_rank",
    "budget_assigned",
    "skip_reason",
)


def individual_from_record(record: ModelRecord, individual: Individual) -> Individual:
    """Give ``individual``, the candidate bred at ``record.model_id``, the record's outcome.

    Raises ``ValueError`` naming the model and the field when the record
    is incomplete, or when the candidate's genome or surrogate decisions
    differ from the record's: the record was not written by this
    configuration.  A quarantined or zero-budget record never trained,
    so it leaves the candidate without a training result.
    """
    if record.fitness is None or record.flops is None:
        raise ValueError(f"model {record.model_id} record is incomplete")
    for name in _BRED_FIELDS:
        bred = getattr(individual, name)
        if name == "genome":
            bred = bred.to_dict()
        if bred != getattr(record, name):
            raise ValueError(
                f"model {record.model_id}: {name} {bred!r} bred on resume differs "
                f"from the recorded {getattr(record, name)!r}"
            )
    individual.fitness = float(record.fitness)
    individual.flops = int(record.flops)
    individual.quarantined = record.quarantined
    individual.fault_events = [dict(e) for e in record.fault_events]
    individual.cache_hit = record.cache_hit
    individual.cache_source = record.cache_source
    trail = record.epochs
    individual.trace = list(
        zip(
            trail.column("epoch"),
            trail.column("validation_accuracy"),
            trail.column("prediction"),
            repeat(None),
            repeat(None),
        )
    )
    if record.quarantined or record.budget_assigned == 0:
        return individual
    # a retried record trails the epochs of its failed attempts first
    seconds = trail.column("epoch_seconds")[len(trail) - record.epochs_trained :]
    individual.settle(
        TrainingResult(
            fitness=individual.fitness,
            epochs_trained=record.epochs_trained,
            terminated_early=record.terminated_early,
            max_epochs=record.max_epochs,
            fitness_history=tuple(record.fitness_history),
            prediction_history=tuple(record.prediction_history),
            measured_fitness=record.measured_fitness,
            engine_overhead_seconds=record.engine_overhead_seconds,
            flops=individual.flops,
            epoch_seconds=tuple(float(s or 0.0) for s in seconds),
            arena_peak_bytes=record.arena_peak_bytes,
        )
    )
    return individual


def rebuild_search_state(
    records: list[ModelRecord],
    *,
    population_size: int,
    offspring_per_generation: int,
    evolution: str = "barrier",
) -> list[ModelRecord]:
    """The records a resumed run takes outcomes from, in model-id order.

    The prefix is the contiguous run of complete records from model 0.
    A barrier run cuts it back to whole generations: duplicates inside a
    generation wait for their leader, so a generation restored in part
    would share evaluations differently than it did.  A steady run keeps
    all of it, since each model commits at its own tick, and a record
    whose ``logical_tick`` is not its model id is refused.
    """
    prefix: list[ModelRecord] = []
    for expected, record in enumerate(sorted(records, key=lambda r: r.model_id)):
        if record.model_id != expected or record.fitness is None or record.flops is None:
            break
        if record.logical_tick is not None and record.logical_tick != expected:
            raise ValueError(
                f"model {record.model_id} carries logical_tick "
                f"{record.logical_tick}, expected {expected}"
            )
        prefix.append(record)
    if len(prefix) < population_size:
        raise ValueError(
            f"initial population incomplete: the initial generation needs "
            f"{population_size} complete records from model 0, found {len(prefix)}; "
            "nothing to resume from"
        )
    if evolution == "barrier":
        whole = (len(prefix) - population_size) // offspring_per_generation
        prefix = prefix[: population_size + whole * offspring_per_generation]
    return prefix


def resume_workflow(commons: DataCommons, run_id: str):
    """Continue a run in the commons (a killed one, or a complete one) to completion.

    Returns a fresh :class:`~repro.workflow.orchestrator.WorkflowResult`
    covering the whole run; the run's directory is completed in place
    and listed in the manifest.
    """
    from repro.workflow.interfaces import WorkflowConfig
    from repro.workflow.orchestrator import A4NNOrchestrator

    config = WorkflowConfig.from_dict(commons.load_run(run_id).workflow_config)
    restored = rebuild_search_state(
        commons.load_models(run_id),
        population_size=config.nas.population_size,
        offspring_per_generation=config.nas.offspring_per_generation,
        evolution=config.nas.evolution,
    )
    _LOG.info("resuming run %s: %d models restored from records", run_id, len(restored))
    return A4NNOrchestrator(config, commons=commons)._search(restored, run_id)
