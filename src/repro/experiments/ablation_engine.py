"""Ablation: engine sensitivity to the convergence window ``N`` and
tolerance ``r``.

The paper fixes ``N = 3`` and ``r = 0.5`` (Table 1).  This sweep shows
the trade-off those values buy: looser settings terminate earlier (more
epochs saved) at the cost of larger prediction error; stricter settings
converge later or not at all.
"""

from __future__ import annotations

from repro.core.calibration import EngineBehaviour, measure_engine_behaviour
from repro.core.engine import EngineConfig, PredictionEngine
from repro.experiments.ablation_functions import curve_bank
from repro.experiments.reporting import ReportTable

__all__ = ["run_engine_ablation", "format_engine_ablation"]


def run_engine_ablation(
    *,
    n_values: tuple = (2, 3, 5),
    r_values: tuple = (0.1, 0.5, 2.0),
    n_per_regime: int = 20,
    seed: int = 11,
    n_epochs: int = 25,
) -> dict[tuple[int, float], EngineBehaviour]:
    """Engine behaviour per ``(N, r)``, in grid order, over one curve bank."""
    curves = curve_bank(n_per_regime, seed, n_epochs)
    return {
        (n, r): measure_engine_behaviour(
            PredictionEngine(EngineConfig(n_predictions=n, tolerance=r)), curves
        )
        for n in n_values
        for r in r_values
    }


def format_engine_ablation(points: dict[tuple[int, float], EngineBehaviour]) -> str:
    """Render the (N, r) sweep as a text table."""
    table = ReportTable("N", "r", "% converged", "mean epochs saved", "mean |error| %")
    for (n, r), b in points.items():
        table.row(n, r, b.percent_terminated, b.mean_epochs_saved, b.mean_abs_error)
    return table.render("Ablation: convergence window N and tolerance r (paper: N=3, r=0.5)")
