"""Figure 9: wall times — A4NN (1 & 4 GPUs) vs standalone NSGA-Net (1 GPU).

Paper shape targets: A4NN saves hours on one GPU (3.5 / 15.8 / 16.3 h
for low / medium / high), and distributing across four GPUs yields
near-linear speedups (3.8× / 3.9× / 3.4×) even though epoch savings
barely change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import (
    DEFAULT_SEED,
    PAPER_SPEEDUP_4GPU,
    PAPER_WALLTIME_SAVED_HOURS,
)
from repro.experiments.grid import paper_pairs
from repro.experiments.reporting import ReportTable, shape_check
from repro.lineage.commons import DataCommons
from repro.scheduler.simulator import simulate_walltime
from repro.xfel.intensity import BeamIntensity

__all__ = ["Fig9Result", "run_fig9", "format_fig9"]


@dataclass
class Fig9Result:
    """Wall-time accounting per intensity."""

    standalone_1gpu: dict  # label -> hours
    a4nn_1gpu: dict
    a4nn_4gpu: dict
    utilization_4gpu: dict

    def saved_hours(self, intensity: str) -> float:
        return self.standalone_1gpu[intensity] - self.a4nn_1gpu[intensity]

    def speedup(self, intensity: str) -> float:
        return self.a4nn_1gpu[intensity] / self.a4nn_4gpu[intensity]


def run_fig9(commons: DataCommons, *, seed: int = DEFAULT_SEED) -> Fig9Result:
    """Simulate the three wall-time bars per intensity from the records."""
    result = Fig9Result({}, {}, {}, {})
    for label, (config, a4nn, baseline) in paper_pairs(commons, seed=seed).items():
        nas = config.effective_nas()
        four_gpus = simulate_walltime(a4nn, nas, 4)
        result.standalone_1gpu[label] = simulate_walltime(baseline, nas, 1).wall_hours
        result.a4nn_1gpu[label] = simulate_walltime(a4nn, nas, 1).wall_hours
        result.a4nn_4gpu[label] = four_gpus.wall_hours
        result.utilization_4gpu[label] = four_gpus.utilization
    return result


def format_fig9(result: Fig9Result) -> str:
    """Wall-time table with the scaling shape checks."""
    table = ReportTable(
        "intensity",
        "standalone h",
        "a4nn 1-gpu h",
        "a4nn 4-gpu h",
        "saved h (paper)",
        "saved h (measured)",
        "speedup (paper)",
        "speedup (measured)",
    )
    for intensity in BeamIntensity:
        label = intensity.label
        table.row(
            label,
            result.standalone_1gpu[label],
            result.a4nn_1gpu[label],
            result.a4nn_4gpu[label],
            PAPER_WALLTIME_SAVED_HOURS[label],
            result.saved_hours(label),
            PAPER_SPEEDUP_4GPU[label],
            result.speedup(label),
        )
    saved = {i.label: result.saved_hours(i.label) for i in BeamIntensity}
    speedups = {i.label: result.speedup(i.label) for i in BeamIntensity}
    checks = [
        shape_check("A4NN saves wall time on every intensity", all(v > 0 for v in saved.values())),
        shape_check(
            "low saves the fewest hours",
            saved["low"] < saved["medium"] and saved["low"] < saved["high"],
        ),
        shape_check(
            "near-linear 4-GPU speedup (> 3x everywhere)",
            all(s > 3.0 for s in speedups.values()),
        ),
        shape_check(
            "speedup stays sub-linear (< 4x, barrier downtime)",
            all(s < 4.0 for s in speedups.values()),
        ),
    ]
    return "\n".join([table.render("Figure 9: wall times"), *checks])
