"""End-to-end real-mode validation experiment.

The paper-scale artifacts run in surrogate mode; this experiment closes
the loop by running the *entire* stack — XFEL simulation, genome
decoding, actual NumPy CNN training, the prediction engine, NSGA-II —
at miniature scale (12 networks, reduced images) with and without the
engine, verifying on real gradient descent that early termination saves
epochs without degrading what the search finds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.compare import RunComparison, compare_runs
from repro.core.engine import EngineConfig
from repro.experiments.grid import run_grid
from repro.experiments.reporting import ReportTable, shape_check
from repro.lineage.commons import DataCommons
from repro.nas.search import NSGANetConfig
from repro.workflow.interfaces import WorkflowConfig
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

__all__ = ["RealModeResult", "run_real_mode", "format_real_mode"]


@dataclass
class RealModeResult:
    """Mini real-mode A4NN-vs-standalone outcome."""

    comparison: RunComparison


def real_mode_config(
    *,
    intensity: BeamIntensity = BeamIntensity.HIGH,
    seed: int = 17,
    images_per_class: int = 80,
    image_size: int = 16,
    max_epochs: int = 10,
) -> WorkflowConfig:
    """A CPU-sized real-mode configuration (12 networks)."""
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=3,
            max_epochs=max_epochs,
        ),
        engine=EngineConfig(e_pred=max_epochs, tolerance=1.0),
        dataset=DatasetConfig(
            intensity=intensity,
            images_per_class=images_per_class,
            image_size=image_size,
        ),
        mode="real",
        n_gpus=(1,),
        seed=seed,
    )


def run_real_mode(commons: DataCommons, config: WorkflowConfig | None = None) -> RealModeResult:
    """Train everything for real, with and without the engine."""
    config = config or real_mode_config()
    baseline = config.standalone()
    records = run_grid(commons, [config, baseline])
    return RealModeResult(
        compare_runs(records[config.resolved_run_id()], records[baseline.resolved_run_id()])
    )


def format_real_mode(result: RealModeResult) -> str:
    """Paired table plus the real-mode shape checks."""
    comparison = result.comparison
    a4nn_best, standalone_best = comparison.best_fitness
    table = ReportTable("metric", "standalone", "A4NN")
    table.row("networks trained", comparison.n_models[1], comparison.n_models[0])
    table.row("epochs trained", comparison.epochs_trained[1], comparison.epochs_trained[0])
    table.row("best accuracy %", standalone_best, a4nn_best)
    checks = [
        shape_check("engine saved real training epochs", comparison.epochs_saved_percent > 0),
        shape_check(
            "search quality preserved (within 10%)", a4nn_best >= standalone_best - 10.0
        ),
        shape_check("real CNNs learn the task (> 60%)", a4nn_best > 60.0),
    ]
    return "\n".join(
        [
            table.render(
                f"Real-mode validation ({comparison.n_models[0]} NumPy CNNs actually trained)"
            ),
            *checks,
        ]
    )
