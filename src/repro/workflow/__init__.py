"""Workflow orchestration (paper §2.2, §2.6).

The orchestrator composes the prediction engine, NAS, lineage tracking,
the data commons, and the resource manager from one user-facing
:class:`~repro.workflow.interfaces.WorkflowConfig`.
"""

from repro.workflow.driver import run_workflow
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator, WorkflowResult
from repro.workflow.resume import individual_from_record, rebuild_search_state, resume_workflow

__all__ = [
    "run_workflow",
    "WorkflowConfig",
    "A4NNOrchestrator",
    "WorkflowResult",
    "individual_from_record",
    "rebuild_search_state",
    "resume_workflow",
]
