"""Benchmark: end-to-end real-mode validation (actual CNN training).

Everything the surrogate benchmarks exercise, but with real gradient
descent on simulated diffraction images — at miniature scale so it
finishes on a laptop CPU in a few minutes.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.real_mode import format_real_mode, run_real_mode


@pytest.mark.benchmark(group="real-mode")
def test_real_mode_end_to_end(benchmark, emit_report, commons):
    result = run_once(benchmark, run_real_mode, commons)
    report = emit_report("real_mode", format_real_mode(result))

    comparison = result.comparison
    a4nn_best, standalone_best = comparison.best_fitness
    # the engine terminated some real training early
    assert comparison.epochs_saved_percent > 0
    # without degrading what the search found
    assert a4nn_best >= standalone_best - 10.0
    # and the networks genuinely learned the classification task
    assert a4nn_best > 60.0
    assert "MISMATCH" not in report
