"""Benchmark ablation: the generation barrier against steady evolution's lag.

Paper §2.5: "GPU downtime can be accumulated as the number of networks
within each generation may not be divisible by the number of available
GPUs ... at the end of each generation's evaluation, some downtime may
occur."  This ablation replays the same A4NN jobs under the barrier and
under the steady rule a search can actually follow — offspring ``g`` is
submitted at the commit of model ``g - lag``, and commits land in order
— at ``lag = n`` (the default ``steady_lag``, one per worker) and
``lag = 2n``.  Neither rule dominates: in-order commits hold a window
of ``n`` behind its slowest model, which can cost more than the
barrier's downtime.
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import run_once
from repro.experiments import DEFAULT_SEED, paper_pairs
from repro.experiments.reporting import ReportTable
from repro.scheduler import simulate_walltime
from repro.xfel import BeamIntensity


def run_barrier_ablation(commons, seed=DEFAULT_SEED):
    config, records, _ = paper_pairs(
        commons, seed=seed, intensities=(BeamIntensity.MEDIUM,), standalone=False
    )["medium"]
    nas = config.nas
    rows = []
    for n_gpus in (1, 2, 4, 8):
        barrier = simulate_walltime(records, nas, n_gpus)
        # the same jobs, released by the steady rule at lag n and 2n
        lag_n, lag_2n = (
            simulate_walltime(records, replace(nas, evolution="steady", steady_lag=lag), n_gpus)
            for lag in (n_gpus, 2 * n_gpus)
        )
        rows.append((n_gpus, barrier, lag_n, lag_2n))
    return rows


@pytest.mark.benchmark(group="ablation")
def test_generation_barrier_cost(benchmark, emit_report, commons):
    rows = run_once(benchmark, run_barrier_ablation, commons)

    table = ReportTable(
        "gpus",
        "barrier h",
        "lag n h",
        "lag 2n h",
        "util (barrier)",
        "util (lag n)",
        "util (lag 2n)",
    )
    for n_gpus, *reports in rows:
        table.row(n_gpus, *(r.wall_hours for r in reports), *(r.utilization for r in reports))
    emit_report(
        "ablation_barrier",
        table.render("Ablation: generation barrier vs steady lag (medium intensity, A4NN)"),
    )

    for n_gpus, barrier, *steady in rows:
        for report in steady:
            # every rule schedules the same work
            assert report.busy_seconds == pytest.approx(barrier.busy_seconds, rel=1e-12)
            assert report.total_epochs == barrier.total_epochs
            # one GPU: no rule can idle it
            if n_gpus == 1:
                assert report.wall_seconds == barrier.wall_seconds
