"""Run replay and verification — reproducible ML made operational.

The paper's lineage tracker exists "to reproduce the search for
near-optimal NNs".  This module closes that loop: given a run
whose :class:`~repro.lineage.records.RunRecord` carries its full
workflow configuration, :func:`replay_run` re-executes the search from
the recorded seed and :func:`verify_run` diffs the fresh record trails
against the ones on disk, reporting any divergence field by field.

What a replay must reproduce of a record is :func:`reproducible`: the
whole record, every fault and retry decision and the epoch trail
included, less what a clock or a folder decides.  The tests' parity,
resume and kill checks compare the same projection.  A run the manifest
does not list (in progress or killed) is a prefix of its replay, so it
is replayed only as far as its model files go and only the models on
disk are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord

__all__ = ["ReplayReport", "replay_run", "reproducible", "verify_run"]


def reproducible(record: ModelRecord) -> dict:
    """What a seeded rerun reproduces of ``record``: its ``to_dict()`` less
    what a clock or a folder decides.

    That is the engine's measured ``engine_overhead_seconds``, each
    epoch's ``checkpoint`` paths, and, in real mode, each epoch's
    measured ``epoch_seconds``; a sampled run's ``epoch_seconds`` are
    seeded cost-model draws and stay.
    """
    document = record.to_dict()
    del document["engine_overhead_seconds"]
    measured = record.training_parameters.get("mode") == "real"
    for epoch in document["epochs"]:
        del epoch["checkpoint"]
        if measured:
            del epoch["epoch_seconds"]
    return document


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
        True when every model's :func:`reproducible` projection agrees.
    mismatches:
        ``(model_id, field, published, replayed)`` tuples, truncated to
        the first 20.
    complete:
        Whether the manifest lists the run; an incomplete run is compared
        over the models on disk only.
    """

    run_id: str
    n_models: int
    matches: bool
    mismatches: list = field(default_factory=list)
    complete: bool = True

    def summary(self) -> str:
        verdict = "REPRODUCED" if self.matches else "DIVERGED"
        compared = f"{self.n_models} models compared"
        if not self.complete:
            compared += "; run incomplete, its models on disk only"
        lines = [f"run {self.run_id}: {verdict} ({compared})"]
        for model_id, fname, published, replayed in self.mismatches[:5]:
            lines.append(
                f"  model {model_id}.{fname}: published {published!r} != replayed {replayed!r}"
            )
        if len(self.mismatches) > 5:
            lines.append(f"  ... and {len(self.mismatches) - 5} more mismatches")
        return "\n".join(lines)


def replay_run(commons: DataCommons, run_id: str) -> list[ModelRecord]:
    """Re-execute a run from its stored config, as far as its model files go.

    A run the manifest lists replays whole.  An unlisted one is a prefix
    of its replay, so the search stops after the generation of its
    highest model id on disk, and a run without model files replays
    nothing.  Returns the fresh record trails (not published anywhere).
    """
    # imported here: lineage is a lower layer than workflow
    from repro.workflow.driver import run_workflow
    from repro.workflow.interfaces import WorkflowConfig

    config = WorkflowConfig.from_dict(commons.load_run(run_id).workflow_config)
    if run_id not in commons.run_ids():
        on_disk = [r.model_id for r in commons.load_models(run_id)]
        if not on_disk:
            return []
        nas = config.nas
        offspring = max(0, max(on_disk) + 1 - nas.population_size)
        generations = 1 + math.ceil(offspring / nas.offspring_per_generation)
        config = replace(config, nas=replace(nas, generations=generations))
    return run_workflow(config).tracker.all_records()


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
        a, b = reproducible(original), reproducible(fresh)
        mismatches.extend(
            (original.model_id, fname, a[fname], b[fname]) for fname in a if a[fname] != b[fname]
        )
    extra = set(by_id) - {r.model_id for r in published}
    for model_id in sorted(extra):
        mismatches.append((model_id, "<presence>", "missing", "present"))
    return mismatches[:20]


def verify_run(commons: DataCommons, run_id: str) -> ReplayReport:
    """Replay a run and diff its record trails against the ones on disk."""
    replayed = replay_run(commons, run_id)
    published = commons.load_models(run_id)
    complete = run_id in commons.run_ids()
    if not complete:
        on_disk = {r.model_id for r in published}
        replayed = [r for r in replayed if r.model_id in on_disk]
    mismatches = _compare_models(published, replayed)
    return ReplayReport(
        run_id=run_id,
        n_models=len(published),
        matches=not mismatches,
        mismatches=mismatches,
        complete=complete,
    )
