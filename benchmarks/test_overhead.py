"""Benchmark: §4.3.1 prediction-engine overhead.

Two measurements: (a) the aggregate overhead folded into a paper-scale
100-model run, reported like the paper's 52.16 s / 28.07 ms numbers;
(b) a direct pytest-benchmark timing of one engine interaction
(predictor + analyzer on a 12-point history), which is the quantity the
28.07 ms corresponds to.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.engine import PredictionEngine
from repro.experiments import format_overhead, run_overhead

from tests.conftest import make_concave_curve


@pytest.mark.benchmark(group="overhead")
def test_overhead_aggregate(benchmark, emit_report):
    result = run_once(benchmark, run_overhead)
    report = emit_report("overhead", format_overhead(result))

    # the engine must be negligible: < 1% of a simulated epoch
    assert result.mean_ms / 1e3 < 0.01 * result.mean_epoch_seconds_simulated
    # and far below the paper's 28 ms per interaction: the projected fit
    # runs in about 1 ms, the trust-region fit it replaced took 13-16 ms,
    # so a silent fall-back to it fails here
    assert result.mean_ms < 4.0
    assert result.n_interactions > 0
    assert "MISMATCH" not in report


@pytest.mark.benchmark(group="overhead")
def test_overhead_single_interaction(benchmark):
    engine = PredictionEngine()
    history = list(make_concave_curve(12, noise=0.4, seed=1))
    predictions = []

    def interaction():
        p = engine.predictor(len(history), history)
        if p is not None:
            predictions.append(p)
        engine.converged(predictions[-3:])

    benchmark(interaction)
    # about 1 ms; the trust-region fit this replaced took 13-16 ms
    assert benchmark.stats["mean"] < 0.004
