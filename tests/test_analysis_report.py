"""Tests for the run view: the Markdown report ``a4nn analyze`` prints."""

import pytest

from repro.analysis import render_run_report
from repro.cli import main
from repro.lineage import DataCommons
from repro.workflow import WorkflowConfig

from tests.test_lineage import publish, small_tracked_run
from repro.lineage.records import RunRecord

INCOMPLETE = "| status | incomplete: in progress or killed; `resume_workflow` continues it |"


@pytest.fixture()
def published_commons(tmp_path):
    _, tracker = small_tracked_run()
    commons = DataCommons(tmp_path)
    publish(
        commons,
        RunRecord(
            run_id="report_run",
            workflow_config=WorkflowConfig.from_dict(
                {"seed": 11, "dataset": {"intensity": "medium"}}
            ).to_dict(),
        ),
        tracker.all_records(),
    )
    return commons


class TestRenderReport:
    def test_contains_all_sections(self, published_commons):
        report = render_run_report(published_commons, "report_run")
        for heading in (
            "# Run report",
            "## Summary",
            "## Early termination",
            "## Prediction quality",
            "## Pareto frontier",
            "## FLOPs vs accuracy",
            "## Top",
            "## Structural fingerprint",
        ):
            assert heading in report

    def test_summary_values_match_run(self, published_commons):
        records = published_commons.load_models("report_run")
        report = render_run_report(published_commons, "report_run")
        assert f"| models evaluated | {len(records)} |" in report
        assert f"| epochs trained | {sum(r.epochs_trained for r in records)} |" in report
        assert "| beam intensity | medium |" in report
        assert "| notes | mode=surrogate, seed=11 |" in report

    def test_top_k_respected(self, published_commons):
        report = render_run_report(published_commons, "report_run", top_k=2)
        assert "## Top 2 models" in report

    def test_write_report_creates_file(self, published_commons, tmp_path):
        path = tmp_path / "out" / "report.md"
        argv = ["analyze", "--commons", str(published_commons.root), "--output", str(path)]
        assert main(argv) == 0
        assert path.read_text() == render_run_report(published_commons, "report_run")
        assert path.read_text().startswith("# Run report")


class TestLiveRun:
    """The view of a run directory the manifest does not list."""

    @staticmethod
    def started(tmp_path):
        """A run begun as the workflow begins one: its id and stored config."""
        config = WorkflowConfig.from_dict(
            {
                "nas": {"population_size": 3, "offspring_per_generation": 3, "generations": 2},
                "run_id": "live",
            }
        )
        commons = DataCommons(tmp_path)
        commons.start_run(RunRecord(run_id="live", workflow_config=config.to_dict()))
        return commons

    def test_half_written_run_sums_its_record_files(self, tmp_path):
        _, tracker = small_tracked_run()
        commons = self.started(tmp_path)
        records = tracker.all_records()[:4]
        for record in records:
            commons.write_model("live", record)
        report = render_run_report(commons, "live")
        assert "| models evaluated | 4 of 6 |" in report
        assert f"| epochs trained | {sum(r.epochs_trained for r in records)} |" in report
        assert f"| epochs saved | {sum(r.epochs_saved for r in records)} |" in report
        assert f"| epochs skipped | {sum(r.epochs_skipped for r in records)} |" in report
        assert INCOMPLETE in report
        assert "## Top 5 models" in report

    def test_run_without_model_files_prints_its_summary(self, tmp_path, capsys):
        commons = self.started(tmp_path)
        assert main(["analyze", "--commons", str(tmp_path), "--run-id", "live"]) == 0
        out = capsys.readouterr().out
        assert "| models evaluated | 0 of 6 |" in out
        assert "| mean fitness | n/a |" in out
        assert INCOMPLETE in out
        assert "## Early termination" not in out
        assert render_run_report(commons, "live") + "\n" == out


class TestSearchProgress:
    def test_trajectory_monotone_and_summary(self, published_commons):
        import numpy as np

        from repro.analysis import search_progress

        records = published_commons.load_models("report_run")
        progress = search_progress(records)
        assert np.all(np.diff(progress.trajectory) >= 0)
        assert progress.final_best == progress.trajectory[-1]
        assert 1 <= progress.evaluations_to_95_percent <= len(progress.trajectory)
        assert len(progress.generation_best) == 2

    def test_report_includes_progress_section(self, published_commons):
        from repro.analysis import render_run_report

        report = render_run_report(published_commons, "report_run")
        assert "## Search progress" in report

    def test_a_flat_run_reports_no_improvement(self, tmp_path):
        # tiny real runs read 50.0 % everywhere (default_real.json)
        _, tracker = small_tracked_run()
        records = tracker.all_records()
        for record in records:
            record.fitness = 50.0
        commons = DataCommons(tmp_path)
        config = WorkflowConfig.from_dict({"seed": 11}).to_dict()
        publish(commons, RunRecord(run_id="flat", workflow_config=config), records)
        report = render_run_report(commons, "flat")
        assert "of total improvement: none, no improvement in 6 evaluations\n" in report
        assert "in successful models: none, every model has the same fitness" in report

    def test_best_so_far_requires_records(self):
        from repro.analysis import best_so_far

        with pytest.raises(ValueError):
            best_so_far([])
