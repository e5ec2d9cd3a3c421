"""Regenerate the PR-8 lineage baseline fixture.

Run from the repo root with ``PYTHONPATH=src python tests/fixtures/make_pr8_baseline.py``.
The fixture pins the full ``ModelRecord.to_dict()`` trails of a small seeded
surrogate-mode workflow so that ``--surrogate off`` runs can be byte-compared
against the pre-predictor behaviour (modulo fields added after PR 8, which the
comparing test requires to be null).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.workflow.driver import run_workflow
from repro.workflow.interfaces import WorkflowConfig


def baseline_config() -> WorkflowConfig:
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=3,
            max_epochs=8,
            nodes_per_phase=2,
        ),
        engine=EngineConfig(e_pred=8),
        mode="surrogate",
        seed=11,
        run_id="pr8-baseline",
    )


def main() -> None:
    fixtures = Path(__file__).resolve().parent
    result = run_workflow(baseline_config())
    records = [r.to_dict() for r in result.tracker.all_records()]
    for trail in records:
        # Wall-clock overhead is the only nondeterministic field in surrogate
        # mode (epoch_seconds come from the deterministic cost model).
        trail["engine_overhead_seconds"] = None
        # The fixture keeps its pre-predictor shape: the comparing tests
        # require these four to be null and strip them before comparing.
        for added in ("predicted_fitness", "predicted_rank", "budget_assigned", "skip_reason"):
            del trail[added]
    out = fixtures / "lineage_pr8_baseline.json"
    out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(records)} trails)")


if __name__ == "__main__":
    main()
