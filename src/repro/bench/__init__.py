"""Benchmark harness for the evaluation fast path (``a4nn bench``)."""

from repro.bench.harness import (
    BenchReport,
    bench_evalpath,
    bench_kernels,
    bench_predictor,
    compare_reports,
    run_bench,
)
from repro.bench.scaling import (
    SCALING_GRID,
    SCALING_SCHEMA,
    ScalingReport,
    compare_scaling,
    run_scaling,
)

__all__ = [
    "BenchReport",
    "bench_evalpath",
    "bench_kernels",
    "bench_predictor",
    "compare_reports",
    "run_bench",
    "SCALING_GRID",
    "SCALING_SCHEMA",
    "ScalingReport",
    "compare_scaling",
    "run_scaling",
]
