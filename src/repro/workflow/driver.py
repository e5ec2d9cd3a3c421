"""One-call driver for a configured run.

A convenience wrapper over :class:`~repro.workflow.orchestrator.
A4NNOrchestrator`.  The paper's paired comparison (A4NN against the
standalone NAS on the same settings and seed) is not run here: it is
:func:`repro.analysis.compare.compare_runs` over the two runs' published
records, which :func:`repro.experiments.grid.run_grid` reads or runs.
"""

from __future__ import annotations

from pathlib import Path

from repro.lineage.commons import DataCommons
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator, WorkflowResult

__all__ = ["run_workflow"]


def run_workflow(
    config: WorkflowConfig,
    *,
    commons_path: str | Path | None = None,
    checkpoint_dir: str | Path | None = None,
) -> WorkflowResult:
    """Run one configured workflow (A4NN if ``config.engine`` is set)."""
    commons = DataCommons(commons_path) if commons_path else None
    orchestrator = A4NNOrchestrator(
        config, commons=commons, checkpoint_dir=checkpoint_dir
    )
    return orchestrator.run()
