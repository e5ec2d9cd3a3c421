"""Figure 7: training epochs required for 100 architectures, and % saved.

The standalone NAS always trains ``100 × 25 = 2,500`` epochs; A4NN's
early termination cuts that by 13.3% / 34.1% / 30.5% (low / medium /
high) in the paper.  The paper also runs A4NN on four GPUs and observes
slightly different epoch counts (1.13-1.2× fewer); scheduling cannot
change a deterministic search's epoch demand, so the figure has one
A4NN column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import DEFAULT_SEED, PAPER_EPOCH_SAVINGS_PERCENT
from repro.experiments.grid import paper_pairs
from repro.experiments.reporting import ReportTable, shape_check
from repro.lineage.commons import DataCommons
from repro.xfel.intensity import BeamIntensity

__all__ = ["Fig7Result", "run_fig7", "format_fig7"]


@dataclass
class Fig7Result:
    """Per-intensity epoch accounting."""

    standalone_epochs: dict  # label -> int (always the full budget)
    a4nn_epochs_1gpu: dict   # label -> int
    budget: int

    def saved_percent(self, intensity: str) -> float:
        epochs = self.a4nn_epochs_1gpu[intensity]
        return 100.0 * (self.budget - epochs) / self.budget


def run_fig7(commons: DataCommons, *, seed: int = DEFAULT_SEED) -> Fig7Result:
    """Count the epochs standalone and A4NN trained."""
    result = Fig7Result(standalone_epochs={}, a4nn_epochs_1gpu={}, budget=0)
    for label, (config, a4nn, baseline) in paper_pairs(commons, seed=seed).items():
        result.standalone_epochs[label] = sum(r.epochs_trained for r in baseline)
        result.a4nn_epochs_1gpu[label] = sum(r.epochs_trained for r in a4nn)
        result.budget = config.nas.max_epochs * len(a4nn)
    return result


def format_fig7(result: Fig7Result) -> str:
    """Epoch table with the paper's savings shape checks."""
    table = ReportTable(
        "intensity",
        "standalone epochs",
        "a4nn epochs (1 gpu)",
        "saved % (paper)",
        "saved % (measured)",
    )
    for intensity in BeamIntensity:
        label = intensity.label
        table.row(
            label,
            result.standalone_epochs[label],
            result.a4nn_epochs_1gpu[label],
            PAPER_EPOCH_SAVINGS_PERCENT[label],
            result.saved_percent(label),
        )
    saved = {i.label: result.saved_percent(i.label) for i in BeamIntensity}
    checks = [
        shape_check(
            "standalone always trains the full 2,500-epoch budget",
            all(v == result.budget for v in result.standalone_epochs.values()),
        ),
        shape_check(
            "A4NN saves epochs on every intensity",
            all(v > 0 for v in saved.values()),
        ),
        shape_check(
            "low intensity saves the least (noisy curves stabilize late)",
            saved["low"] < saved["medium"] and saved["low"] < saved["high"],
        ),
    ]
    return "\n".join([table.render("Figure 7: epochs required & saved"), *checks])
