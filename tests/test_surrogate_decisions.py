"""Surrogate-on decisions pinned over evolution modes, lags and probe budgets.

``published_digests.json`` pins one surrogate-on configuration (steady,
lag 2).  This sweep pins every model's allocator decision —
``(model_id, predicted_fitness, predicted_rank, budget_assigned,
skip_reason)`` — for barrier evolution and for steady evolution at lag
1, 3 and 7 (a lag larger than the population of 4), each at
``probe_epochs`` 0 and 1.  ``tests/fixtures/make_surrogate_decisions.py``
wrote the fixture from :func:`surrogate_decisions` at the parent of the
change that let the predictor score against every observation instead
of a commit-count prefix.
"""

import json
from pathlib import Path

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SKIP_PROBE, SurrogateConfig
from repro.workflow import run_workflow
from repro.workflow.interfaces import WorkflowConfig

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "surrogate_decisions.json"

#: (label, evolution, steady_lag)
SCHEDULES = (
    ("barrier", "barrier", None),
    ("steady-lag1", "steady", 1),
    ("steady-lag3", "steady", 3),
    ("steady-lag7", "steady", 7),
)


def decisions_config(evolution: str, lag: int | None, probe_epochs: int) -> WorkflowConfig:
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=15,
            max_epochs=8,
            nodes_per_phase=2,
            evolution=evolution,
            steady_lag=lag,
        ),
        engine=EngineConfig(e_pred=8),
        mode="surrogate",
        seed=10,
        n_gpus=(1,),
        surrogate=SurrogateConfig(min_records=6, explore_every=4, probe_epochs=probe_epochs),
    )


def surrogate_decisions() -> dict:
    """Every model's allocator decision, keyed ``<schedule>-probe<p>``."""
    pinned = {}
    for label, evolution, lag in SCHEDULES:
        for probe_epochs in (0, 1):
            result = run_workflow(decisions_config(evolution, lag, probe_epochs))
            pinned[f"{label}-probe{probe_epochs}"] = [
                [
                    r.model_id,
                    r.predicted_fitness,
                    r.predicted_rank,
                    r.budget_assigned,
                    r.skip_reason,
                ]
                for r in result.tracker.all_records()
            ]
    return pinned


def test_surrogate_decisions_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    current = json.loads(json.dumps(surrogate_decisions()))
    assert sorted(current) == sorted(expected)
    for key, rows in expected.items():
        # every configuration scores and probes, so the pin is not vacuous
        assert any(row[4] == SKIP_PROBE for row in rows), key
        assert current[key] == rows, key
