"""Figure 8: distribution of the termination epoch ``e_t`` per intensity.

Paper shape targets: low — mean ``e_t`` above 18 with >60% of models
terminated early; medium — mean under 12.5 with >70% terminated; high —
an early-skewed distribution (mean ≈ 10) with only ~55% terminated and
a large full-training remainder (the "inverted bell").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.curves import termination_histogram
from repro.experiments.configs import DEFAULT_SEED, PAPER_CONVERGENCE
from repro.experiments.grid import paper_pairs
from repro.experiments.reporting import ReportTable, shape_check
from repro.lineage.commons import DataCommons
from repro.xfel.intensity import BeamIntensity

__all__ = ["Fig8Result", "run_fig8", "format_fig8"]


@dataclass
class Fig8Result:
    """Termination summaries keyed by intensity label."""

    summaries: dict  # label -> TerminationSummary
    max_epochs: int


def run_fig8(commons: DataCommons, *, seed: int = DEFAULT_SEED) -> Fig8Result:
    """Histogram termination epochs of each intensity's A4NN records."""
    result = Fig8Result(summaries={}, max_epochs=25)
    for label, (config, a4nn, _) in paper_pairs(commons, seed=seed, standalone=False).items():
        result.max_epochs = config.nas.max_epochs
        result.summaries[label] = termination_histogram(a4nn, max_epochs=result.max_epochs)
    return result


def format_fig8(result: Fig8Result) -> str:
    """Convergence table, raw histograms, and shape checks."""
    table = ReportTable(
        "intensity",
        "% terminated (paper)",
        "% terminated (measured)",
        "mean e_t (paper)",
        "mean e_t (measured)",
    )
    for intensity in BeamIntensity:
        label = intensity.label
        summary = result.summaries[label]
        paper = PAPER_CONVERGENCE[label]
        table.row(
            label,
            f"{paper['percent_terminated']:.0f} ({'>' if paper['direction'][0] == 'above' else '~'})",
            summary.percent_terminated,
            f"{paper['mean_e_t']:.1f} ({'>' if paper['direction'][1] == 'above' else '<' if paper['direction'][1] == 'below' else '~'})",
            summary.mean_termination_epoch,
        )

    low = result.summaries["low"]
    med = result.summaries["medium"]
    high = result.summaries["high"]
    checks = [
        shape_check("low: mean e_t > 18", low.mean_termination_epoch > 18.0),
        shape_check("low: > 60% terminated", low.percent_terminated > 60.0),
        shape_check("medium: mean e_t <= 12.5", med.mean_termination_epoch <= 12.5),
        shape_check("medium: > 70% terminated", med.percent_terminated > 70.0),
        shape_check(
            "high: early terminations (mean e_t <= 12)",
            high.mean_termination_epoch <= 12.0,
        ),
        shape_check(
            "high: smallest terminated share (inverted bell)",
            high.percent_terminated
            < min(low.percent_terminated, med.percent_terminated),
        ),
    ]
    histograms = []
    for intensity in BeamIntensity:
        summary = result.summaries[intensity.label]
        histograms.append(
            f"{intensity.label:>7} e_t histogram: "
            + " ".join(str(c) for c in summary.histogram)
        )
    return "\n".join(
        [table.render("Figure 8: termination-epoch distribution"), *histograms, *checks]
    )
