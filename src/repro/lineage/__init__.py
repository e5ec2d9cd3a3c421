"""Lineage tracking and the NN data commons (paper §2.3, §4.5).

Record trails — genome, FLOPs, per-epoch accuracies and
times, predictions, engine parameters — are collected live by the
:class:`~repro.lineage.tracker.LineageTracker`, published to a durable
:class:`~repro.lineage.commons.DataCommons` (the Dataverse substitute),
and checked against a fresh re-execution by
:func:`~repro.lineage.replay.verify_run`.
"""

from repro.lineage.commons import DataCommons
from repro.lineage.replay import ReplayReport, replay_run, verify_run
from repro.lineage.records import EpochRecord, ModelRecord, RunRecord
from repro.lineage.tracker import LineageTracker

__all__ = [
    "DataCommons",
    "ReplayReport",
    "replay_run",
    "verify_run",
    "EpochRecord",
    "ModelRecord",
    "RunRecord",
    "LineageTracker",
]
