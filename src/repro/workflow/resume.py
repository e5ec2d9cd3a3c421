"""Resuming interrupted searches from the data commons.

A paper-scale NAS run takes tens of (simulated) hours; real deployments
get pre-empted.  Because every record trail lands in the commons as its
model finishes, and every stochastic draw in the search derives from the
root seed plus stable keys (generation number, model id), a run can be
resumed from its last *complete* generation and will produce exactly the
archive an uninterrupted run would have.

The resume path reconstructs :class:`~repro.nas.population.Individual`
objects from published :class:`~repro.lineage.records.ModelRecord`
trails, replays NSGA-II environmental selection over them (deterministic
given the records), and hands the search a
:class:`~repro.nas.search.SearchState` to continue from.
"""

from __future__ import annotations

from collections import deque

from repro.core.plugin import TrainingResult
from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord
from repro.nas.genome import Genome
from repro.nas.nsga2 import environmental_selection
from repro.nas.population import Individual, Population
from repro.nas.search import (
    GenerationStats,
    SearchState,
    generation_stats,
    replay_steady,
    steady_chunk_closed,
)
from repro.utils.logging import get_logger

__all__ = ["individual_from_record", "rebuild_search_state", "resume_workflow"]

_LOG = get_logger("workflow.resume")


def individual_from_record(record: ModelRecord) -> Individual:
    """Reconstruct an evaluated individual from its record trail."""
    if record.fitness is None or record.flops is None:
        raise ValueError(f"model {record.model_id} record is incomplete")
    # surrogate allocator decisions are replayed from the record, never
    # recomputed — resumed runs keep the original predictions even though
    # the predictor is refit from a prefix of the data
    predicted = {
        "predicted_fitness": record.predicted_fitness,
        "predicted_rank": record.predicted_rank,
        "budget_assigned": record.budget_assigned,
        "skip_reason": record.skip_reason,
    }
    if record.quarantined:
        # quarantined candidates carry penalized objectives but no
        # training result; rebuilding one keeps the resumed archive's
        # epoch budget honest
        return Individual(
            genome=Genome.from_dict(record.genome),
            model_id=record.model_id,
            generation=record.generation,
            fitness=float(record.fitness),
            flops=int(record.flops),
            quarantined=True,
            fault_events=[dict(e) for e in record.fault_events],
            **predicted,
        )
    if record.budget_assigned is not None and int(record.budget_assigned) <= 0:
        # zero-budget skip: the allocator pre-filled the objectives from
        # its prediction and the model never reached an evaluator, so
        # there is no training result to rebuild
        return Individual(
            genome=Genome.from_dict(record.genome),
            model_id=record.model_id,
            generation=record.generation,
            fitness=float(record.fitness),
            flops=int(record.flops),
            logical_tick=record.logical_tick,
            **predicted,
        )
    result = TrainingResult(
        fitness=float(record.fitness),
        epochs_trained=int(record.epochs_trained),
        terminated_early=bool(record.terminated_early),
        fitness_history=list(record.fitness_history),
        prediction_history=list(record.prediction_history),
        measured_fitness=float(record.measured_fitness)
        if record.measured_fitness is not None
        else float(record.fitness),
        engine_overhead_seconds=float(record.engine_overhead_seconds),
    )
    result._max_epochs = int(record.max_epochs)
    epoch_seconds = [
        float(e["epoch_seconds"]) if e.get("epoch_seconds") is not None else 0.0
        for e in record.epochs
    ]
    return Individual(
        genome=Genome.from_dict(record.genome),
        model_id=record.model_id,
        generation=record.generation,
        fitness=float(record.fitness),
        flops=int(record.flops),
        result=result,
        epoch_seconds=epoch_seconds,
        cache_hit=bool(record.cache_hit),
        cache_source=record.cache_source,
        logical_tick=record.logical_tick,
        **predicted,
    )


def _rebuild_steady(
    records: list[ModelRecord],
    population_size: int,
    offspring_per_generation: int,
    max_epochs: int | None = None,
    steady_lag: int = 1,
) -> SearchState:
    """Steady-mode rebuild: replay one-in/one-out commits in tick order.

    Steady ticks equal model ids by construction, so the resumable
    prefix is the maximal contiguous run of complete records starting at
    model 0, cut back to a whole stats chunk so pseudo-generation stats
    stay exact.  Models past the cut are re-evaluated identically on
    resume (the logical clock re-breeds them from the same states, the
    last ``steady_lag`` of which travel on the returned state so the
    search does not replay the archive again).
    """
    ordered = sorted(records, key=lambda r: r.model_id)
    prefix: list[ModelRecord] = []
    for expected, record in enumerate(ordered):
        if record.model_id != expected or record.fitness is None or record.flops is None:
            break
        if record.logical_tick is not None and record.logical_tick != expected:
            raise ValueError(
                f"model {record.model_id} carries logical_tick "
                f"{record.logical_tick}, expected {expected}"
            )
        prefix.append(record)
    if len(prefix) < population_size:
        raise ValueError("initial population incomplete; nothing to resume from")
    chunks = 1 + (len(prefix) - population_size) // offspring_per_generation
    usable = population_size + (chunks - 1) * offspring_per_generation
    prefix = prefix[:usable]

    archive_members = [individual_from_record(record) for record in prefix]
    window: deque = deque(maxlen=steady_lag)
    stats: list[GenerationStats] = []
    chunk: list[Individual] = []
    states = replay_steady(archive_members, population_size)
    for tick, (individual, state) in enumerate(zip(archive_members, states)):
        individual.logical_tick = tick
        window.append(state)
        chunk.append(individual)
        generation = steady_chunk_closed(tick + 1, population_size, offspring_per_generation)
        if generation is not None:
            stats.append(
                generation_stats(generation, chunk, Population(state.members), max_epochs)
            )
            chunk = []
    return SearchState(
        population=Population(state.members),
        archive=Population(archive_members),
        next_generation=len(stats),
        next_model_id=usable,
        generation_stats=stats,
        steady_window=list(window),
    )


def rebuild_search_state(
    records: list[ModelRecord],
    *,
    population_size: int,
    offspring_per_generation: int,
    evolution: str = "barrier",
    max_epochs: int | None = None,
    steady_lag: int = 1,
) -> SearchState:
    """Rebuild the search state from the complete generations in ``records``.

    Incomplete trailing generations (interrupted mid-evaluation) are
    dropped; their models will be re-evaluated identically on resume.
    In steady mode the state is rebuilt by replaying the one-in/one-out
    commits in logical-tick order instead of per-generation batches.
    ``max_epochs`` (the full per-model budget) is needed to rebuild the
    surrogate ``epochs_skipped`` stat; ``None`` reports zero skips.
    ``steady_lag`` (the run's breeding lag) is how many of the replayed
    steady states the result carries for rebreeding the in-flight window.
    """
    if evolution == "steady":
        return _rebuild_steady(
            records, population_size, offspring_per_generation, max_epochs, steady_lag
        )
    by_generation: dict[int, list[ModelRecord]] = {}
    for record in records:
        by_generation.setdefault(record.generation, []).append(record)
    if 0 not in by_generation or len(by_generation[0]) < population_size:
        raise ValueError("initial generation incomplete; nothing to resume from")

    complete: list[list[ModelRecord]] = [
        sorted(by_generation[0], key=lambda r: r.model_id)[:population_size]
    ]
    generation = 1
    while (
        generation in by_generation
        and len(by_generation[generation]) >= offspring_per_generation
    ):
        complete.append(
            sorted(by_generation[generation], key=lambda r: r.model_id)[
                :offspring_per_generation
            ]
        )
        generation += 1

    archive_members: list[Individual] = []
    stats: list[GenerationStats] = []
    population = Population(
        [individual_from_record(r) for r in complete[0]]
    )
    archive_members.extend(population.members)
    stats.append(generation_stats(0, population.members, population, max_epochs))
    # replay environmental selection over each completed offspring batch
    for generation, batch in enumerate(complete[1:], start=1):
        offspring = [individual_from_record(r) for r in batch]
        archive_members.extend(offspring)
        combined = Population(population.members + offspring)
        survivors = environmental_selection(
            combined.objective_array(), population_size
        )
        population = combined.subset(survivors)
        stats.append(generation_stats(generation, offspring, population, max_epochs))

    next_model_id = max(m.model_id for m in archive_members) + 1
    return SearchState(
        population=population,
        archive=Population(archive_members),
        next_generation=len(complete),
        next_model_id=next_model_id,
        generation_stats=stats,
    )


def resume_workflow(commons: DataCommons, run_id: str):
    """Continue a published (possibly partial) run to completion.

    Returns a fresh :class:`~repro.workflow.orchestrator.WorkflowResult`
    covering the whole run, and republishes the completed record trails
    under the same run id.
    """
    from repro.workflow.interfaces import WorkflowConfig
    from repro.workflow.orchestrator import A4NNOrchestrator

    run = commons.load_run(run_id)
    if run.workflow_config is None:
        raise ValueError(f"run {run_id!r} has no stored configuration")
    config = WorkflowConfig.from_dict(run.workflow_config)
    records = commons.load_models(run_id)
    orchestrator = A4NNOrchestrator(config, commons=commons)
    state = rebuild_search_state(
        records,
        population_size=config.nas.population_size,
        offspring_per_generation=config.nas.offspring_per_generation,
        evolution=config.nas.evolution,
        max_epochs=config.nas.max_epochs,
        steady_lag=orchestrator.effective_nas().steady_lag or 1,
    )
    _LOG.info(
        "resuming run %s from generation %d (%d models already evaluated)",
        run_id,
        state.next_generation,
        len(state.archive),
    )
    # seed the tracker with the trails the state was rebuilt from, so the
    # republished run is complete
    restored = {m.model_id for m in state.archive}
    tracker = orchestrator.new_tracker()
    tracker.records.update((r.model_id, r) for r in records if r.model_id in restored)
    return orchestrator._search(tracker, state, run_id)
