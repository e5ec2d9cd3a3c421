"""§4.3.1: prediction-engine overhead measurement.

The paper reports that over a 100-model test the engine adds 52.16 s of
wall time — a mean of 28.07 ms per interaction with 1.12 ms variance —
i.e. negligible against epoch times of tens of seconds.  This experiment
measures our engine's per-interaction overhead the same way: wall time
of the predictor+analyzer call, accumulated inside Algorithm 1 across a
full 100-model surrogate run.  That run fits the models of a generation
in lockstep, one stacked call per epoch, and each model is charged an
equal share of every call it was part of: the per-interaction figure is
that share, the engine's time spread over the models fitted together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.configs import DEFAULT_SEED, PAPER_OVERHEAD
from repro.experiments.grid import paper_config
from repro.experiments.reporting import ReportTable, shape_check
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.intensity import BeamIntensity

__all__ = ["OverheadResult", "run_overhead", "format_overhead"]


@dataclass
class OverheadResult:
    """Engine overhead aggregated over one 100-model run."""

    total_seconds: float
    n_interactions: int
    mean_ms: float
    variance_ms2: float
    mean_epoch_seconds_simulated: float


def run_overhead(
    *, intensity: BeamIntensity = BeamIntensity.MEDIUM, seed: int = DEFAULT_SEED
) -> OverheadResult:
    """Aggregate the measured engine overhead from a paper-scale run."""
    # a run of its own: the variance comes from stopwatch laps no record stores
    archive = A4NNOrchestrator(paper_config(intensity, seed=seed)).run().search.archive
    total = sum(m.result.engine_overhead_seconds for m in archive)
    interactions = sum(m.result.engine_interactions for m in archive)
    means = [
        m.result.engine_overhead_mean for m in archive if m.result.engine_interactions
    ]
    variances = [
        m.result.engine_overhead_variance
        for m in archive
        if m.result.engine_interactions >= 2
    ]
    epoch_seconds = [s for m in archive for s in m.epoch_seconds]
    return OverheadResult(
        total_seconds=total,
        n_interactions=interactions,
        mean_ms=1e3 * float(np.mean(means)),
        variance_ms2=1e6 * float(np.mean(variances)),  # laps are timed in s, so s² → ms²
        mean_epoch_seconds_simulated=float(np.mean(epoch_seconds)),
    )


def format_overhead(result: OverheadResult) -> str:
    """Overhead table against the paper's §4.3.1 numbers."""
    table = ReportTable("metric", "paper", "measured")
    table.row(
        "engine seconds per 100-model test",
        PAPER_OVERHEAD["total_seconds_per_100_models"],
        result.total_seconds,
    )
    table.row(
        "mean ms per interaction",
        PAPER_OVERHEAD["mean_ms_per_interaction"],
        result.mean_ms,
    )
    table.row(
        "variance ms² per epoch",
        PAPER_OVERHEAD["variance_ms_per_epoch"],
        result.variance_ms2,
    )
    checks = [
        shape_check(
            "overhead negligible vs simulated epoch time (< 1%)",
            result.mean_ms / 1e3 < 0.01 * result.mean_epoch_seconds_simulated,
        ),
        shape_check(
            "per-interaction overhead within 10x of the paper's 28 ms",
            result.mean_ms < 10 * PAPER_OVERHEAD["mean_ms_per_interaction"],
        ),
    ]
    title = "§4.3.1: engine overhead (per interaction: a share of a stacked fit)"
    return "\n".join([table.render(title), *checks])
