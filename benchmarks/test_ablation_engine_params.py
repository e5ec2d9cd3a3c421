"""Benchmark ablation: engine sensitivity to window N and tolerance r."""

import math

import pytest

from benchmarks.conftest import run_once
from repro.experiments import format_engine_ablation, run_engine_ablation


@pytest.mark.benchmark(group="ablation")
def test_engine_parameter_sweep(benchmark, emit_report):
    by_setting = run_once(benchmark, run_engine_ablation)
    report = emit_report("ablation_engine_params", format_engine_ablation(by_setting))

    # looser tolerance always terminates at least as often (same N)
    for n in (2, 3, 5):
        strict = by_setting[(n, 0.1)]
        paper = by_setting[(n, 0.5)]
        loose = by_setting[(n, 2.0)]
        assert strict.percent_terminated <= paper.percent_terminated <= loose.percent_terminated
        assert strict.mean_epochs_saved <= loose.mean_epochs_saved + 1e-9

    # longer windows are more conservative (same r)
    for r in (0.1, 0.5, 2.0):
        assert (
            by_setting[(5, r)].mean_epochs_saved
            <= by_setting[(2, r)].mean_epochs_saved + 1e-9
        )

    # the trade-off is real: the loosest setting saves the most epochs
    # but with no smaller error than the paper's N=3, r=0.5
    paper_point = by_setting[(3, 0.5)]
    loosest = by_setting[(2, 2.0)]
    assert loosest.mean_epochs_saved > paper_point.mean_epochs_saved
    if not math.isnan(loosest.mean_abs_error) and not math.isnan(paper_point.mean_abs_error):
        assert loosest.mean_abs_error >= paper_point.mean_abs_error - 0.5

    assert "N=3, r=0.5" in report
