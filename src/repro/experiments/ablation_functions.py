"""Ablation: which parametric function predicts NN fitness best?

One of the paper's forward-looking questions (§6).  We run the engine
with each registered parametric family over the same bank of learning
curves (all three intensity regimes) and score: how often predictions
converged, mean termination epoch, and the absolute error between the
converged prediction and the curve's true epoch-25 value.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.calibration import EngineBehaviour, measure_engine_behaviour
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.parametric import FUNCTION_REGISTRY
from repro.experiments.reporting import ReportTable
from repro.nas.genome import random_genome
from repro.nas.surrogate import REGIMES, sample_curve
from repro.utils.rng import derive_rng
from repro.xfel.intensity import BeamIntensity

__all__ = ["curve_bank", "run_function_ablation", "format_function_ablation"]


def curve_bank(n_per_regime: int, seed: int, n_epochs: int) -> list[np.ndarray]:
    """``n_per_regime`` sampled curves per beam intensity, low to high."""
    curves = []
    for intensity in BeamIntensity:
        regime = REGIMES[intensity]
        rng = derive_rng(seed, "ablation", intensity.label)
        for i in range(n_per_regime):
            genome = random_genome(rng)
            curves.append(sample_curve(genome, regime, rng, n_epochs))
    return curves


def run_function_ablation(
    *,
    functions: list[str] | None = None,
    n_per_regime: int = 25,
    seed: int = 7,
    n_epochs: int = 25,
) -> dict[str, EngineBehaviour]:
    """Each family's engine behaviour over an identical curve bank."""
    names = functions if functions is not None else sorted(FUNCTION_REGISTRY)
    curves = curve_bank(n_per_regime, seed, n_epochs)
    return {
        name: measure_engine_behaviour(
            PredictionEngine(
                EngineConfig(function=name, c_min=max(3, FUNCTION_REGISTRY[name].n_params))
            ),
            curves,
        )
        for name in names
    }


def format_function_ablation(scores: dict[str, EngineBehaviour]) -> str:
    """Render family scores sorted by prediction error, NaN errors last."""
    table = ReportTable(
        "function", "% converged", "mean e_t", "mean |error| %", "mean epochs saved"
    )
    for name, b in sorted(
        scores.items(), key=lambda item: (math.isnan(item[1].mean_abs_error), item[1].mean_abs_error)
    ):
        table.row(
            name,
            b.percent_terminated,
            b.mean_termination_epoch,
            b.mean_abs_error,
            b.mean_epochs_saved,
        )
    return table.render("Ablation: parametric function choice (exp3 is the paper's)")
