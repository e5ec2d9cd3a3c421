#!/usr/bin/env python
"""Quickstart: the A4NN prediction engine on a single learning curve.

The engine's whole job: watch a network's per-epoch validation accuracy,
fit the paper's parametric function F(x) = a - b**(c - x) to the curve,
extrapolate the final (epoch-25) fitness, and stop training once three
successive extrapolations agree within half a percentage point.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import sparkline
from repro.core import EngineConfig, PredictionEngine, run_training_loop
from repro.core.plugin import LearningCurveModel


def simulated_training_curve(n_epochs: int = 25, seed: int = 0) -> np.ndarray:
    """A realistic noisy learning curve (percent validation accuracy)."""
    rng = np.random.default_rng(seed)
    epochs = np.arange(1, n_epochs + 1)
    curve = 96.5 - (96.5 - 55.0) * np.exp(-0.30 * epochs)
    return np.clip(curve + rng.normal(0, 0.4, n_epochs), 0, 100)


def main() -> None:
    # Table 1 of the paper: F = a - b**(c-x), C_min=3, e_pred=25, N=3, r=0.5
    engine = PredictionEngine(EngineConfig())
    print("engine:", engine.describe())

    curve = simulated_training_curve()
    print("\nfull curve  :", sparkline(curve))

    def report(epoch: int, accuracy: float, prediction: float | None) -> None:
        print(
            f"epoch {epoch:2d}: measured {accuracy:6.2f}%"
            + (f"   predicted@25 {prediction:6.2f}%" if prediction is not None else "")
        )

    # Algorithm 1: train, validate, predict, stop once predictions agree
    result = run_training_loop(LearningCurveModel(curve), engine, len(curve), epoch_callback=report)
    if result.terminated_early:
        print(
            f"\n>> converged: training terminated at epoch {result.epochs_trained} "
            f"({result.epochs_saved} epochs saved)"
        )
        print(f">> engine's final-fitness prediction: {result.fitness:.2f}%")
        print(f">> actual epoch-25 accuracy         : {curve[-1]:.2f}%")
    else:
        print("\n>> predictions never stabilized; the full budget was trained")

    print("\nobserved    :", sparkline(result.fitness_history))
    print("predictions :", sparkline(result.prediction_history))


if __name__ == "__main__":
    main()
