"""Benchmark: the projected fit drives Algorithm 1 to the same decisions.

``fit_curve`` solves the separable families by variable projection; up
to PR 18 it ran a cold trust-region fit (kept as ``tests/trf_oracle.py``).
The function ablation's curve bank, drawn for 10 seeds (x 3 intensities
x 30 curves), is replayed through Algorithm 1 with both solvers.  The
projected fit may never have a larger SSE than the old one on the same
history, and training must stop at the same epoch with the same final
fitness on at least 99 % of the curves; every curve on which the two
disagree is listed.
"""

from typing import NamedTuple

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.engine import PredictionEngine
from repro.core.plugin import LearningCurveModel, run_training_loop
from repro.experiments.ablation_functions import curve_bank
from repro.experiments.reporting import ReportTable
from repro.xfel.intensity import BeamIntensity

from tests.trf_oracle import TRFEngine, sse_above

SEEDS = range(10)
CURVES_PER_CELL = 30
N_EPOCHS = 25


class _KeepsFits:
    """Engine mixin: every fit attempted on the current curve, in order."""

    def fit(self, fitness_histories):
        fits = super().fit(fitness_histories)
        if np.shape(fitness_histories)[1] >= self.config.c_min:
            self.fits.extend(fits)
        return fits


class Projected(_KeepsFits, PredictionEngine):
    pass


class TrustRegion(_KeepsFits, TRFEngine):
    pass


class Replay(NamedTuple):
    """One curve through Algorithm 1 under both solvers."""

    intensity: str
    seed: int
    index: int
    new: tuple  # (e_t, fitness) with the projected fit
    old: tuple  # (e_t, fitness) with the trust-region fit
    fits: int  # histories both solvers fitted
    fits_above: int  # of those, projected SSE above the old one

    @property
    def same_epoch(self) -> bool:
        return self.new[0] == self.old[0]

    @property
    def same_outcome(self) -> bool:
        return self.same_epoch and abs(self.new[1] - self.old[1]) <= 1e-3


def _above(new, old) -> bool:
    if new is None or old is None:
        return new is None and old is not None
    return sse_above(new, old)


def replay_bank() -> list:
    engines = (Projected(), TrustRegion())
    labels = [i.label for i in BeamIntensity for _ in range(CURVES_PER_CELL)]
    rows = []
    for seed in SEEDS:
        for index, curve in enumerate(curve_bank(CURVES_PER_CELL, seed, N_EPOCHS)):
            outcomes = []
            for engine in engines:
                engine.fits = []
                result = run_training_loop(LearningCurveModel(curve), engine, N_EPOCHS)
                outcomes.append((result.epochs_trained, result.fitness))
            pairs = list(zip(*(engine.fits for engine in engines)))
            rows.append(
                Replay(
                    labels[index], seed, index % CURVES_PER_CELL, *outcomes,
                    fits=len(pairs), fits_above=sum(_above(new, old) for new, old in pairs),
                )
            )
    return rows


def format_same_science(rows) -> str:
    table = ReportTable("intensity", "curves", "same e_t", "fitness within 1e-3", "fits", "SSE above old")
    for label in [i.label for i in BeamIntensity] + ["pooled"]:
        cell = [r for r in rows if label in (r.intensity, "pooled")]
        table.row(
            label,
            len(cell),
            sum(r.same_epoch for r in cell),
            sum(r.same_outcome for r in cell),
            sum(r.fits for r in cell),
            sum(r.fits_above for r in cell),
        )
    lines = [table.render("Same science: projected fit vs the trust-region fit it replaced")]
    lines.append("curves on which the two solvers disagree, as (e_t, fitness) new | old:")
    lines += [
        f"  {r.intensity:6s} seed {r.seed} curve {r.index:2d}: {r.new} | {r.old}"
        for r in rows
        if not r.same_outcome
    ]
    return "\n".join(lines)


@pytest.mark.benchmark(group="same-science")
def test_projected_fit_reaches_the_same_decisions(benchmark, emit_report):
    rows = run_once(benchmark, replay_bank)
    emit_report("same_science", format_same_science(rows))

    assert len(rows) == len(SEEDS) * len(BeamIntensity) * CURVES_PER_CELL
    assert not any(r.fits_above for r in rows)
    same_epoch = sum(r.same_epoch for r in rows)
    assert same_epoch >= 0.99 * len(rows)
    assert sum(r.same_outcome for r in rows) >= 0.99 * same_epoch
