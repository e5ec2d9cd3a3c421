"""Benchmark ablation: which parametric function predicts fitness best?

Answers the paper's §6 question by scoring every registered family over
an identical bank of learning curves from all three intensity regimes.
"""

import math

import pytest

from benchmarks.conftest import run_once
from repro.experiments import format_function_ablation, run_function_ablation


@pytest.mark.benchmark(group="ablation")
def test_parametric_function_ablation(benchmark, emit_report):
    scores = run_once(benchmark, run_function_ablation)
    report = emit_report("ablation_functions", format_function_ablation(scores))

    # the paper's exp3 must be a strong performer: it converges on a
    # sizeable share of curves with small prediction error
    exp3 = scores["exp3"]
    assert exp3.percent_terminated > 40.0
    assert not math.isnan(exp3.mean_abs_error)
    assert exp3.mean_abs_error < 8.0

    # every family produced a full score row
    assert len(scores) >= 8
    for s in scores.values():
        assert 0.0 <= s.percent_terminated <= 100.0
        assert 0.0 <= s.mean_epochs_saved <= 25.0

    # at least one family is clearly worse than exp3 on error or
    # coverage — the choice of function matters
    assert any(
        (not math.isnan(s.mean_abs_error) and s.mean_abs_error > exp3.mean_abs_error)
        or s.percent_terminated < exp3.percent_terminated
        for name, s in scores.items()
        if name != "exp3"
    )
    assert "exp3" in report
