"""Benchmark: regenerate Figure 8 (termination-epoch distributions)."""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import format_fig8, run_fig8


@pytest.mark.benchmark(group="fig8")
def test_fig8_termination_distributions(benchmark, emit_report, commons):
    result = run_once(benchmark, run_fig8, commons)
    report = emit_report("fig8_convergence", format_fig8(result))

    low = result.summaries["low"]
    medium = result.summaries["medium"]
    high = result.summaries["high"]

    # paper: low terminates late (mean e_t > 18) for > 60% of models
    assert low.mean_termination_epoch > 18.0
    assert low.percent_terminated > 60.0
    # paper: medium terminates around half the budget for > 70% of models
    assert medium.mean_termination_epoch <= 13.5
    assert medium.percent_terminated > 70.0
    # paper: high terminates earliest but for the smallest share (~55%),
    # with a large full-training remainder — the "inverted bell"
    assert high.mean_termination_epoch <= 12.0
    assert high.percent_terminated < min(low.percent_terminated, medium.percent_terminated)
    assert 45.0 < high.percent_terminated < 75.0
    # ordering of mean termination epochs: high < medium < low
    assert (
        high.mean_termination_epoch
        < medium.mean_termination_epoch
        < low.mean_termination_epoch
    )
    assert "MISMATCH" not in report
