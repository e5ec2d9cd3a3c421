"""Benchmark: regenerate Figure 6 (Pareto accuracy vs FLOPs, A4NN vs NAS)."""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import format_fig6, run_fig6
from repro.xfel import BeamIntensity


@pytest.mark.benchmark(group="fig6")
def test_fig6_pareto_frontiers(benchmark, emit_report, commons):
    result = run_once(benchmark, run_fig6, commons)
    report = emit_report("fig6_pareto", format_fig6(result))

    # paper shapes: A4NN matches the standalone NAS's best accuracy at
    # every intensity.  The margin is one measurement-noise sigma: the
    # standalone baseline reports the *last measured* (noisy) accuracy,
    # whose population maximum is inflated by noise peaks, while A4NN's
    # predictions regress that noise toward the curve's asymptote — so
    # A4NN can sit slightly below on the noisiest (low) data.
    for intensity in BeamIntensity:
        a4nn_best = result.best_accuracy("a4nn", intensity.label)
        standalone_best = result.best_accuracy("standalone", intensity.label)
        assert a4nn_best >= standalone_best - 3.0, intensity.label
        assert a4nn_best > 90.0, intensity.label

    assert result.best_accuracy("a4nn", "medium") > result.best_accuracy("a4nn", "low") - 0.5
    assert result.best_accuracy("a4nn", "high") > result.best_accuracy("a4nn", "low") - 0.5

    # frontiers are non-trivial (more than one trade-off point somewhere)
    assert any(len(result.a4nn[i.label]) >= 2 for i in BeamIntensity)
    assert "MISMATCH" not in report
