"""Benchmark: regenerate Figure 10 (near-optimal NN structure rendering)."""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig10_architecture import format_fig10, run_fig10


@pytest.mark.benchmark(group="fig10")
def test_fig10_near_optimal_architecture(benchmark, emit_report, commons):
    result = run_once(benchmark, run_fig10, commons)
    report = emit_report("fig10_architecture", format_fig10(result))

    # the selected model is genuinely near-optimal for low intensity
    assert result.fitness > 90.0
    # the rendering shows the full phase structure
    assert report.count("PhaseBlock") == 3
    assert "node0" in report and "output <-" in report
    assert "Dense" in report
    # every phase renders all four of its nodes
    assert report.count("node3 <-") == 3
