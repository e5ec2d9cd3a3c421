"""Tests for the Markdown run-report generator."""

import pytest

from repro.analysis import render_run_report, write_run_report
from repro.lineage import DataCommons

from tests.test_lineage import publish, small_tracked_run
from repro.lineage.records import RunRecord


@pytest.fixture()
def published_commons(tmp_path):
    _, tracker = small_tracked_run()
    commons = DataCommons(tmp_path)
    publish(
        commons,
        RunRecord(
            run_id="report_run",
            intensity="medium",
            nas_parameters={},
            engine_parameters={"function": "exp3"},
            notes="test run",
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
        run = published_commons.load_run("report_run")
        report = render_run_report(published_commons, "report_run")
        assert f"| models evaluated | {run.n_models} |" in report
        assert f"| epochs trained | {run.total_epochs_trained} |" in report
        assert "test run" in report

    def test_top_k_respected(self, published_commons):
        report = render_run_report(published_commons, "report_run", top_k=2)
        assert "## Top 2 models" in report

    def test_write_report_creates_file(self, published_commons, tmp_path):
        path = write_run_report(
            published_commons, "report_run", tmp_path / "out" / "report.md"
        )
        assert path.exists()
        assert path.read_text().startswith("# Run report")


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

    def test_best_so_far_requires_records(self):
        from repro.analysis import best_so_far

        with pytest.raises(ValueError):
            best_so_far([])
