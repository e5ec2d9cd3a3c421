"""Engine behaviour over a curve bank: Algorithm 1 per curve, aggregated.

The one routine behind three measurements: the tier-1 check that the
surrogate curve regimes in :mod:`repro.nas.surrogate` reproduce the
paper's Fig. 8 convergence behaviour per beam intensity, the parametric
function ablation (the paper's §6 question) and the ``(N, r)`` sweep.
Each reports the engine's convergence statistics (percent terminated,
mean/median termination epoch, epochs saved, prediction error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.engine import PredictionEngine
from repro.core.plugin import LearningCurveModel, run_training_loop

__all__ = ["EngineBehaviour", "measure_engine_behaviour"]


@dataclass(frozen=True)
class EngineBehaviour:
    """Convergence statistics of an engine over a curve bank.

    Attributes
    ----------
    n_curves:
        Bank size.
    percent_terminated:
        Share of curves the engine stopped early, in percent.
    mean_termination_epoch / median_termination_epoch:
        Statistics of ``e_t`` over terminated curves (NaN when none).
    mean_epochs_saved:
        Average epochs saved per curve (terminated or not).
    mean_abs_error:
        Mean |prediction − true final value| over terminated curves.
    """

    n_curves: int
    percent_terminated: float
    mean_termination_epoch: float
    median_termination_epoch: float
    mean_epochs_saved: float
    mean_abs_error: float


def measure_engine_behaviour(
    engine: PredictionEngine,
    curves: Sequence[np.ndarray],
    *,
    max_epochs: int | None = None,
) -> EngineBehaviour:
    """Run Algorithm 1 over every curve and aggregate the outcomes."""
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    budget = max_epochs if max_epochs is not None else len(curves[0])

    terminations: list[int] = []
    errors: list[float] = []
    saved: list[int] = []
    for curve in curves:
        curve = np.asarray(curve, dtype=float)
        if len(curve) < budget:
            raise ValueError(
                f"curve of length {len(curve)} shorter than budget {budget}"
            )
        result = run_training_loop(LearningCurveModel(curve), engine, budget)
        saved.append(budget - result.epochs_trained)
        if result.terminated_early:
            terminations.append(result.epochs_trained)
            errors.append(abs(result.fitness - float(curve[budget - 1])))

    return EngineBehaviour(
        n_curves=len(curves),
        percent_terminated=100.0 * len(terminations) / len(curves),
        mean_termination_epoch=float(np.mean(terminations)) if terminations else float("nan"),
        median_termination_epoch=float(np.median(terminations)) if terminations else float("nan"),
        mean_epochs_saved=float(np.mean(saved)),
        mean_abs_error=float(np.mean(errors)) if errors else float("nan"),
    )

