"""Benchmark: regenerate Table 3 (A4NN vs the XPSI state of the art)."""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import format_table3, run_table3
from repro.xfel import BeamIntensity


@pytest.mark.benchmark(group="table3")
def test_table3_a4nn_vs_xpsi(benchmark, emit_report, commons):
    result = run_once(benchmark, run_table3, commons)
    report = emit_report("table3_xpsi", format_table3(result))

    for intensity in BeamIntensity:
        label = intensity.label
        xpsi = result.xpsi[label]
        # paper shape: fixed-cost XPSI beats A4NN on one GPU...
        assert result.a4nn_hours_1gpu[label] > xpsi.simulated_hours, label
        # ...but A4NN on four GPUs beats XPSI
        assert result.a4nn_hours_4gpu[label] < xpsi.simulated_hours, label
        # A4NN matches or beats XPSI accuracy
        assert result.a4nn_accuracy[label] >= xpsi.accuracy, label

    # XPSI accuracy degrades with noise: low < medium <= high (paper:
    # 92 / 99 / 100); the A4NN margin is largest on noisy data
    assert result.xpsi["low"].accuracy < result.xpsi["medium"].accuracy
    assert result.xpsi["medium"].accuracy <= result.xpsi["high"].accuracy + 1e-9
    margin_low = result.a4nn_accuracy["low"] - result.xpsi["low"].accuracy
    margin_high = result.a4nn_accuracy["high"] - result.xpsi["high"].accuracy
    assert margin_low > margin_high

    assert "MISMATCH" not in report
