"""Lineage tracker: builds record trails as the search commits.

The search's per-individual callback hands every committed model to
:meth:`LineageTracker.observe_individual`, which builds its
:class:`~repro.lineage.records.ModelRecord` from the individual alone:
the outcome, the fault decisions, and the per-epoch ``trace`` the
evaluation attempts left on it (failed attempts first).  Per-epoch model
checkpoints (paper §2.2.2: "the workflow orchestrator writes the
partially trained NN's state to memory, such that each model can be
loaded and re-evaluated from any point in the training phase") are
written by the evaluator, which holds the network; their paths ride in
the trace.
"""

from __future__ import annotations

from repro.lineage.records import EpochRecord, ModelRecord
from repro.nas.population import Individual
from repro.utils.logging import get_logger

__all__ = ["LineageTracker"]

_LOG = get_logger("lineage.tracker")


class LineageTracker:
    """Collects the evolution of NN architectures and their metadata.

    Parameters
    ----------
    engine_parameters:
        Snapshot of the prediction-engine configuration (Table 1), or
        ``None`` for standalone-NAS runs.
    training_parameters:
        Shared training hyper-parameters recorded on every model
        (learning rate, batch size, criterion, fitness measurement).
    """

    def __init__(
        self,
        engine_parameters: dict | None = None,
        *,
        training_parameters: dict | None = None,
    ) -> None:
        self.engine_parameters = engine_parameters
        self.training_parameters = dict(training_parameters or {})
        self.records: dict[int, ModelRecord] = {}

    def observe_epoch(self, record: ModelRecord, entry: tuple) -> None:
        """Fold one trace entry into ``record``'s epoch trail.

        ``entry`` is ``(epoch, fitness, prediction, epoch_stats,
        checkpoint)``; the trainer's stats are ``None`` where nothing was
        trained (surrogate curves, cache hits).
        """
        epoch, fitness, prediction, stats, checkpoint = entry
        epoch_record = EpochRecord(
            epoch=epoch,
            validation_accuracy=float(fitness),
            prediction=None if prediction is None else float(prediction),
            checkpoint=checkpoint,
        )
        if stats is not None:
            epoch_record.train_accuracy = stats.train_accuracy
            epoch_record.train_loss = stats.train_loss
            epoch_record.epoch_seconds = stats.wall_seconds
        # the trail stores plain dicts in EpochRecord's field order: the
        # fresh record's own attribute dict is that entry, no copy needed
        record.epochs.append(vars(epoch_record))

    def observe_individual(self, individual: Individual) -> None:
        """Build a committed model's record from the individual."""
        record = ModelRecord(
            model_id=individual.model_id,
            generation=individual.generation,
            genome=individual.genome.to_dict(),
            engine_parameters=self.engine_parameters,
            training_parameters=dict(self.training_parameters),
        )
        for entry in individual.trace:
            self.observe_epoch(record, entry)
        record.fitness = individual.fitness
        record.flops = individual.flops
        record.quarantined = bool(individual.quarantined)
        record.fault_events = [dict(e) for e in individual.fault_events]
        for event in record.fault_events:
            if event["kind"] == "numerical":
                record.fault = event["detail"]
        record.cache_hit = bool(individual.cache_hit)
        record.cache_source = individual.cache_source
        record.logical_tick = individual.logical_tick
        record.arena_peak_bytes = int(individual.arena_peak_bytes)
        record.arena_enabled = record.arena_peak_bytes > 0
        record.predicted_fitness = individual.predicted_fitness
        record.predicted_rank = individual.predicted_rank
        record.budget_assigned = individual.budget_assigned
        record.skip_reason = individual.skip_reason
        result = individual.result
        if result is not None:
            record.measured_fitness = result.measured_fitness
            record.terminated_early = result.terminated_early
            record.epochs_trained = result.epochs_trained
            record.max_epochs = result._max_epochs
            record.fitness_history = list(result.fitness_history)
            record.prediction_history = list(result.prediction_history)
            record.engine_overhead_seconds = result.engine_overhead_seconds
        # fill epoch wall times from the individual when the evaluator
        # supplied them out-of-band (surrogate cost model)
        if individual.epoch_seconds and record.epochs:
            for entry, seconds in zip(record.epochs, individual.epoch_seconds):
                if entry.get("epoch_seconds") is None:
                    entry["epoch_seconds"] = float(seconds)
        self.records[individual.model_id] = record
        _LOG.debug("recorded model %d (gen %d)", individual.model_id, individual.generation)

    def all_records(self) -> list[ModelRecord]:
        """Records ordered by model id."""
        return [self.records[k] for k in sorted(self.records)]
