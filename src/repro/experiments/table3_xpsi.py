"""Table 3: A4NN versus the XPSI state of the art.

Per beam intensity: wall time and validation accuracy of A4NN (single
GPU, plus the 4-GPU row discussed in §4.4) against the fixed-cost XPSI
framework.  Paper shape targets: XPSI's 15.45 h beats A4NN on one GPU
but loses to A4NN on four GPUs; A4NN matches or beats XPSI's accuracy,
with the largest margin on the noisy low-intensity data.

A4NN accuracy comes from the paper-scale surrogate search; XPSI is also
run *for real* on our simulated datasets (reduced scale) to verify the
pipeline's accuracy-vs-noise behaviour holds end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.xpsi import PAPER_XPSI_HOURS, run_xpsi
from repro.experiments.configs import DEFAULT_SEED, PAPER_TABLE3, PAPER_WALLTIME_HOURS
from repro.experiments.grid import paper_pairs
from repro.experiments.reporting import ReportTable, shape_check
from repro.lineage.commons import DataCommons
from repro.scheduler.simulator import simulate_walltime
from repro.xfel.dataset import DatasetConfig, generate_dataset
from repro.xfel.intensity import BeamIntensity

__all__ = ["Table3Result", "run_table3", "format_table3"]


@dataclass
class Table3Result:
    """Per-intensity comparison rows."""

    a4nn_accuracy: dict     # label -> best validation accuracy (surrogate)
    a4nn_hours_1gpu: dict
    a4nn_hours_4gpu: dict
    xpsi: dict              # label -> XPSIResult (real run on simulated data)


def run_table3(
    commons: DataCommons, *, seed: int = DEFAULT_SEED, xpsi_images_per_class: int = 300
) -> Table3Result:
    """Assemble the comparison for all three intensities."""
    result = Table3Result({}, {}, {}, {})
    for label, (config, a4nn, _) in paper_pairs(commons, seed=seed, standalone=False).items():
        result.a4nn_accuracy[label] = max(float(r.fitness) for r in a4nn if not r.quarantined)
        nas = config.effective_nas()
        result.a4nn_hours_1gpu[label] = simulate_walltime(a4nn, nas, 1).wall_hours
        result.a4nn_hours_4gpu[label] = simulate_walltime(a4nn, nas, 4).wall_hours
        dataset = generate_dataset(
            DatasetConfig(intensity=config.intensity, images_per_class=xpsi_images_per_class)
        )
        result.xpsi[label] = run_xpsi(dataset)
    return result


def format_table3(result: Table3Result) -> str:
    """Table 3 rows (paper vs measured) with shape checks."""
    table = ReportTable(
        "intensity",
        "metric",
        "A4NN (paper)",
        "A4NN (measured)",
        "XPSI (paper)",
        "XPSI (measured)",
    )
    for intensity in BeamIntensity:
        label = intensity.label
        table.row(
            label,
            "wall time h (1 gpu)",
            PAPER_WALLTIME_HOURS[label]["a4nn_1gpu"],
            result.a4nn_hours_1gpu[label],
            PAPER_XPSI_HOURS,
            result.xpsi[label].simulated_hours,
        )
        table.row(
            label,
            "wall time h (4 gpu)",
            PAPER_WALLTIME_HOURS[label]["a4nn_4gpu"],
            result.a4nn_hours_4gpu[label],
            PAPER_XPSI_HOURS,
            result.xpsi[label].simulated_hours,
        )
        table.row(
            label,
            "accuracy %",
            PAPER_TABLE3[label]["a4nn_accuracy"],
            result.a4nn_accuracy[label],
            PAPER_TABLE3[label]["xpsi_accuracy"],
            result.xpsi[label].accuracy,
        )
    checks = [
        shape_check(
            "XPSI (fixed pipeline) beats A4NN wall time on one GPU",
            all(
                result.a4nn_hours_1gpu[i.label] > result.xpsi[i.label].simulated_hours
                for i in BeamIntensity
            ),
        ),
        shape_check(
            "A4NN on four GPUs beats XPSI wall time",
            all(
                result.a4nn_hours_4gpu[i.label] < result.xpsi[i.label].simulated_hours
                for i in BeamIntensity
            ),
        ),
        shape_check(
            "A4NN accuracy >= XPSI accuracy on every intensity (measured)",
            all(
                result.a4nn_accuracy[i.label] >= result.xpsi[i.label].accuracy
                for i in BeamIntensity
            ),
        ),
        shape_check(
            "XPSI accuracy degrades with noise (low < medium <= high)",
            result.xpsi["low"].accuracy
            < result.xpsi["medium"].accuracy
            <= result.xpsi["high"].accuracy + 1e-9,
        ),
    ]
    return "\n".join([table.render("Table 3: A4NN vs XPSI"), *checks])
