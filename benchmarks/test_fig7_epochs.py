"""Benchmark: regenerate Figure 7 (epochs required & % saved)."""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import PAPER_EPOCH_SAVINGS_PERCENT, format_fig7, run_fig7
from repro.xfel import BeamIntensity


@pytest.mark.benchmark(group="fig7")
def test_fig7_epoch_savings(benchmark, emit_report, commons):
    result = run_once(benchmark, run_fig7, commons)
    report = emit_report("fig7_epochs", format_fig7(result))

    # standalone NSGA-Net always trains 100 x 25 = 2,500 epochs
    assert all(v == 2500 for v in result.standalone_epochs.values())

    saved = {i.label: result.saved_percent(i.label) for i in BeamIntensity}
    # A4NN saves on every intensity
    assert all(v > 5.0 for v in saved.values())
    # paper ordering: low saves the least (13.3%), medium the most (34.1%)
    assert saved["low"] < saved["high"] < saved["medium"] + 15.0
    assert saved["low"] < saved["medium"]
    # each measured saving within 10 percentage points of the paper's
    for label, paper_value in PAPER_EPOCH_SAVINGS_PERCENT.items():
        assert abs(saved[label] - paper_value) < 10.0, (label, saved[label], paper_value)
    assert "MISMATCH" not in report
