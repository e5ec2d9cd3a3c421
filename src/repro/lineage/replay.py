"""Run replay and verification — reproducible ML made operational.

The paper's lineage tracker exists "to reproduce the search for
near-optimal NNs".  This module closes that loop: given a published run
whose :class:`~repro.lineage.records.RunRecord` carries its full
workflow configuration, :func:`replay_run` re-executes the search from
the recorded seed and :func:`verify_run` diffs the fresh record trails
against the published ones, reporting any divergence field by field.

Surrogate-mode runs replay bit-exactly (all randomness is derived from
the seed).  Real-mode runs replay the same genomes, fitness values and
epoch counts, but measured wall-clock fields differ; those are excluded
from verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord

__all__ = ["ReplayReport", "replay_run", "verify_run"]

#: Record fields whose values are wall-clock measurements (never stable).
_MEASURED_FIELDS = ("engine_overhead_seconds",)

#: Fields compared per model during verification.
_VERIFIED_FIELDS = (
    "model_id",
    "generation",
    "genome",
    "fitness",
    "measured_fitness",
    "flops",
    "terminated_early",
    "epochs_trained",
    "max_epochs",
    "fitness_history",
    "prediction_history",
    "quarantined",
    "cache_hit",
    "cache_source",
    "logical_tick",
    "predicted_fitness",
    "predicted_rank",
    "budget_assigned",
    "skip_reason",
)


@dataclass
class ReplayReport:
    """Outcome of verifying a run against its replay.

    Attributes
    ----------
    run_id:
        The verified run.
    n_models:
        Models compared.
    matches:
        True when every verified field of every model agrees.
    mismatches:
        ``(model_id, field, published, replayed)`` tuples, truncated to
        the first 20.
    mode:
        The run's evaluation mode (real-mode epoch timings are expected
        to differ and are not compared).
    """

    run_id: str
    n_models: int
    matches: bool
    mismatches: list = field(default_factory=list)
    mode: str = "surrogate"

    def summary(self) -> str:
        verdict = "REPRODUCED" if self.matches else "DIVERGED"
        lines = [f"run {self.run_id}: {verdict} ({self.n_models} models compared)"]
        for model_id, fname, published, replayed in self.mismatches[:5]:
            lines.append(
                f"  model {model_id}.{fname}: published {published!r} != replayed {replayed!r}"
            )
        if len(self.mismatches) > 5:
            lines.append(f"  ... and {len(self.mismatches) - 5} more mismatches")
        return "\n".join(lines)


def replay_run(commons: DataCommons, run_id: str):
    """Re-execute a published run from its recorded configuration.

    Returns the fresh :class:`~repro.workflow.orchestrator.
    WorkflowResult` (not published anywhere).
    """
    # imported here: lineage is a lower layer than workflow
    from repro.workflow.driver import run_workflow
    from repro.workflow.interfaces import WorkflowConfig

    run = commons.load_run(run_id)
    if run.workflow_config is None:
        raise ValueError(
            f"run {run_id!r} predates config capture and cannot be replayed"
        )
    config = WorkflowConfig.from_dict(run.workflow_config)
    return run_workflow(config)


def _compare_models(
    published: list[ModelRecord], replayed: list[ModelRecord]
) -> list[tuple]:
    mismatches: list[tuple] = []
    by_id = {r.model_id: r for r in replayed}
    for original in published:
        fresh = by_id.get(original.model_id)
        if fresh is None:
            mismatches.append((original.model_id, "<presence>", "present", "missing"))
            continue
        for fname in _VERIFIED_FIELDS:
            a = getattr(original, fname)
            b = getattr(fresh, fname)
            if a != b:
                mismatches.append((original.model_id, fname, a, b))
    extra = set(by_id) - {r.model_id for r in published}
    for model_id in sorted(extra):
        mismatches.append((model_id, "<presence>", "missing", "present"))
    return mismatches[:20]


def verify_run(commons: DataCommons, run_id: str) -> ReplayReport:
    """Replay a run and diff its record trails against the published ones."""
    run = commons.load_run(run_id)
    published = commons.load_models(run_id)
    result = replay_run(commons, run_id)
    replayed = result.tracker.all_records()
    mismatches = _compare_models(published, replayed)
    mode = (run.workflow_config or {}).get("mode", "surrogate")
    return ReplayReport(
        run_id=run_id,
        n_models=len(published),
        matches=not mismatches,
        mismatches=mismatches,
        mode=mode,
    )
