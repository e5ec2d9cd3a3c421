"""The seed grid: the paper figures' runs, published once and read back as records.

``run_grid`` is the figures' only way to a run.  A second call on the
same commons searches nothing; a run killed part-way is continued from
its files to the records an uninterrupted run publishes; and a figure
computed from the records reads what the live run's objects read.
"""

import pytest

from repro.analysis.curves import termination_histogram
from repro.core.engine import EngineConfig
from repro.experiments import grid
from repro.experiments.fig8_convergence import Fig8Result, format_fig8, run_fig8
from repro.lineage import DataCommons, reproducible
from repro.nas.search import NSGANetConfig
from repro.utils.validation import ValidationError
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel import BeamIntensity
from repro.xfel.dataset import DatasetConfig

TINY_NAS = NSGANetConfig(
    population_size=4, offspring_per_generation=4, generations=3, max_epochs=10
)
TINY_ENGINE = EngineConfig(e_pred=10)
CONFIG = WorkflowConfig(
    nas=TINY_NAS,
    engine=TINY_ENGINE,
    dataset=DatasetConfig(intensity=BeamIntensity.MEDIUM),
    seed=5,
)
PAIR = [CONFIG, CONFIG.standalone()]


def projections(records):
    return [reproducible(r) for r in records]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    return grid.run_grid(DataCommons(tmp_path_factory.mktemp("whole")), PAIR)


def test_a_second_call_searches_nothing(tmp_path, monkeypatch, uninterrupted):
    commons = DataCommons(tmp_path)
    first = grid.run_grid(commons, PAIR)
    assert list(first) == [c.resolved_run_id() for c in PAIR]
    assert all(len(records) == TINY_NAS.total_evaluations for records in first.values())

    def no_search(*args, **kwargs):
        raise AssertionError("run_grid searched a published run again")

    monkeypatch.setattr(A4NNOrchestrator, "_search", no_search)
    assert grid.run_grid(commons, PAIR) == first
    assert {k: projections(v) for k, v in first.items()} == {
        k: projections(v) for k, v in uninterrupted.items()
    }


@pytest.mark.parametrize("commits, resumed", [(6, 1), (2, 0)])
def test_a_killed_run_comes_back_as_the_uninterrupted_one(
    tmp_path, monkeypatch, uninterrupted, commits, resumed
):
    """Killed after ``commits`` models: continued from its files once the initial
    population is on disk, run afresh before that."""
    commons = DataCommons(tmp_path)
    orchestrator = A4NNOrchestrator(CONFIG, commons=commons)
    commit = orchestrator._on_individual
    seen = []

    def killed(individual):
        if len(seen) == commits:
            raise KeyboardInterrupt
        seen.append(individual.model_id)
        commit(individual)

    orchestrator._on_individual = killed
    with pytest.raises(KeyboardInterrupt):
        orchestrator.run()
    run_id = CONFIG.resolved_run_id()
    assert run_id not in commons.run_ids()
    assert len(commons.load_models(run_id)) == commits

    calls, resume_workflow = [], grid.resume_workflow

    def resume(commons, run_id):
        calls.append(run_id)
        return resume_workflow(commons, run_id)

    monkeypatch.setattr(grid, "resume_workflow", resume)
    records = grid.run_grid(commons, PAIR)
    assert calls == [run_id] * resumed
    assert commons.run_ids() == sorted(records)
    for config in PAIR:
        key = config.resolved_run_id()
        assert projections(records[key]) == projections(uninterrupted[key])


def test_a_run_id_stored_with_another_config_is_refused(tmp_path):
    commons = DataCommons(tmp_path)
    grid.run_grid(commons, [CONFIG])
    other = WorkflowConfig(
        nas=TINY_NAS, engine=TINY_ENGINE, seed=6, run_id=CONFIG.resolved_run_id()
    )
    with pytest.raises(ValidationError, match="another config"):
        grid.run_grid(commons, [other])


def test_fig8_from_records_renders_what_the_live_runs_render(tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "PAPER_NAS_CONFIG", TINY_NAS)
    monkeypatch.setattr(grid, "PAPER_ENGINE_CONFIG", TINY_ENGINE)
    from_records = format_fig8(run_fig8(DataCommons(tmp_path), seed=5))

    summaries = {}
    for intensity in BeamIntensity:
        archive = A4NNOrchestrator(grid.paper_config(intensity, seed=5)).run().search.archive
        summaries[intensity.label] = termination_histogram(
            [m.result for m in archive], max_epochs=TINY_NAS.max_epochs
        )
    live = format_fig8(Fig8Result(summaries=summaries, max_epochs=TINY_NAS.max_epochs))
    assert from_records == live
