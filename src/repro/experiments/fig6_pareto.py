"""Figure 6: Pareto-optimal accuracy vs FLOPs, A4NN vs standalone NSGA-Net.

For each beam intensity, both searches evaluate 100 architectures; the
artifact is the Pareto frontier of (validation accuracy ↑, FLOPs ↓) of
each archive.  The paper's qualitative findings: A4NN's frontiers match
or beat the standalone NAS at comparable FLOPs, and accuracy ordering
across intensities is high ≈ medium > low.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pareto import hypervolume_2d, pareto_frontier
from repro.experiments.configs import DEFAULT_SEED
from repro.experiments.grid import paper_pairs
from repro.experiments.reporting import ReportTable, shape_check
from repro.lineage.commons import DataCommons
from repro.xfel.intensity import BeamIntensity

__all__ = ["Fig6Result", "run_fig6", "format_fig6"]


@dataclass
class Fig6Result:
    """Frontiers per intensity for both searches."""

    a4nn: dict          # intensity label -> list[ParetoPoint]
    standalone: dict    # intensity label -> list[ParetoPoint]

    def best_accuracy(self, which: str, intensity: str) -> float:
        frontier = getattr(self, which)[intensity]
        return max(p.fitness for p in frontier)


def run_fig6(commons: DataCommons, *, seed: int = DEFAULT_SEED) -> Fig6Result:
    """Compute both frontiers for all three intensities."""
    result = Fig6Result(a4nn={}, standalone={})
    for label, (_, a4nn, baseline) in paper_pairs(commons, seed=seed).items():
        result.a4nn[label] = pareto_frontier(a4nn)
        result.standalone[label] = pareto_frontier(baseline)
    return result


def format_fig6(result: Fig6Result) -> str:
    """Frontier summary table plus the paper's qualitative shape checks."""
    table = ReportTable(
        "intensity", "search", "frontier size", "best acc %", "min MFLOPs", "hypervolume"
    )
    for intensity in BeamIntensity:
        label = intensity.label
        for which in ("a4nn", "standalone"):
            frontier = getattr(result, which)[label]
            table.row(
                label,
                which,
                len(frontier),
                max(p.fitness for p in frontier),
                min(p.flops for p in frontier) / 1e6,
                hypervolume_2d(frontier) / 1e6,
            )
    checks = [
        shape_check(
            "A4NN best accuracy within noise (3%) of standalone everywhere",
            all(
                result.best_accuracy("a4nn", i.label)
                >= result.best_accuracy("standalone", i.label) - 3.0
                for i in BeamIntensity
            ),
        ),
        shape_check(
            "accuracy ordering high/medium > low",
            min(
                result.best_accuracy("a4nn", "high"),
                result.best_accuracy("a4nn", "medium"),
            )
            > result.best_accuracy("a4nn", "low") - 0.5,
        ),
    ]
    return "\n".join(
        [table.render("Figure 6: Pareto accuracy vs FLOPs"), *checks]
    )
