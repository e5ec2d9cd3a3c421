"""Lineage tracker: builds record trails as the search runs.

Hooks into the evaluator's per-epoch observer interface and the search's
per-individual callback, accumulating :class:`~repro.lineage.records.
ModelRecord` objects, and optionally checkpointing model state every
epoch (paper §2.2.2: "the workflow orchestrator writes the partially
trained NN's state to memory, such that each model can be loaded and
re-evaluated from any point in the training phase").
"""

from __future__ import annotations

from pathlib import Path

from repro.lineage.records import EpochRecord, ModelRecord
from repro.nas.population import Individual
from repro.nn.serialization import save_checkpoint
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
    checkpoint_dir:
        When given (real mode), every epoch's model state is saved under
        ``<dir>/model_<id>/epoch_<e>``.
    training_parameters:
        Shared training hyper-parameters recorded on every model
        (learning rate, batch size, criterion, fitness measurement).
    """

    def __init__(
        self,
        engine_parameters: dict | None = None,
        *,
        checkpoint_dir: str | Path | None = None,
        training_parameters: dict | None = None,
    ) -> None:
        self.engine_parameters = engine_parameters
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.training_parameters = dict(training_parameters or {})
        self.records: dict[int, ModelRecord] = {}

    # -- evaluator observer (per-epoch) ---------------------------------------

    def observe_epoch(
        self,
        individual: Individual,
        epoch: int,
        fitness: float,
        prediction: float | None,
        context: dict,
    ) -> None:
        """EpochObserver hook: record one epoch, checkpoint if configured."""
        record = self._record_for(individual)
        epoch_record = EpochRecord(
            epoch=epoch,
            validation_accuracy=float(fitness),
            prediction=None if prediction is None else float(prediction),
        )
        stats = context.get("epoch_stats")
        if stats is not None:
            epoch_record.train_accuracy = stats.train_accuracy
            epoch_record.train_loss = stats.train_loss
            epoch_record.epoch_seconds = stats.wall_seconds

        network = context.get("network")
        if network is not None and self.checkpoint_dir is not None:
            target = self.checkpoint_dir / f"model_{individual.model_id}"
            epoch_record.checkpoint = save_checkpoint(
                network, target, tag=f"epoch_{epoch}"
            )
        # the trail stores plain dicts in EpochRecord's field order: the
        # fresh record's own attribute dict is that entry, no copy needed
        record.epochs.append(vars(epoch_record))

    # -- search callback (per-individual, after evaluation) --------------------

    def observe_individual(self, individual: Individual) -> None:
        """Finalize a model's record once its evaluation completed."""
        record = self._record_for(individual)
        record.fitness = individual.fitness
        record.flops = individual.flops
        record.quarantined = bool(individual.quarantined) or record.quarantined
        record.cache_hit = bool(individual.cache_hit)
        record.cache_source = individual.cache_source
        record.logical_tick = individual.logical_tick
        record.arena_peak_bytes = int(individual.arena_peak_bytes)
        record.arena_enabled = record.arena_peak_bytes > 0
        record.predicted_fitness = individual.predicted_fitness
        record.predicted_rank = individual.predicted_rank
        record.budget_assigned = individual.budget_assigned
        record.skip_reason = individual.skip_reason
        if individual.fault_events and not record.fault_events:
            # fault events normally arrive through observe_fault_event;
            # pick them up from the individual when the policy wasn't
            # wired to this tracker directly
            record.fault_events = [dict(e) for e in individual.fault_events]
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
        _LOG.debug("recorded model %d (gen %d)", individual.model_id, individual.generation)

    def observe_fault(self, individual: Individual, fault) -> None:
        """Record a sanitizer :class:`~repro.tooling.sanitizer.NumericalFault`.

        The fault snapshot replaces the epochs the model never trained:
        the record keeps whatever history was measured *before* the
        fault, and the poisoned value itself never enters
        ``fitness_history`` (it would corrupt the engine's curve fit).
        """
        record = self._record_for(individual)
        record.fault = fault.to_dict() if hasattr(fault, "to_dict") else dict(fault)
        _LOG.warning(
            "model %d training aborted by sanitizer: %s",
            individual.model_id,
            record.fault.get("message"),
        )

    def observe_fault_event(self, individual: Individual, event: dict) -> None:
        """Record one fault-policy decision (retry or quarantine).

        Wired into :class:`~repro.scheduler.faults.FaultTolerantEvaluator`
        so the data commons keeps the full trail: which attempts failed,
        how (crash/timeout/numerical), what backoff was applied, and
        whether the candidate was ultimately quarantined.
        """
        record = self._record_for(individual)
        record.fault_events.append(dict(event))
        if event.get("action") == "quarantine":
            record.quarantined = True
        _LOG.info(
            "model %d attempt %s: %s fault -> %s",
            individual.model_id,
            event.get("attempt"),
            event.get("kind"),
            event.get("action"),
        )

    # -- access -----------------------------------------------------------------

    def _record_for(self, individual: Individual) -> ModelRecord:
        record = self.records.get(individual.model_id)
        if record is None:
            record = ModelRecord(
                model_id=individual.model_id,
                generation=individual.generation,
                genome=individual.genome.to_dict(),
                engine_parameters=self.engine_parameters,
                training_parameters=dict(self.training_parameters),
            )
            self.records[individual.model_id] = record
        return record

    def all_records(self) -> list[ModelRecord]:
        """Records ordered by model id."""
        return [self.records[k] for k in sorted(self.records)]
