"""Markdown report generation over a data commons (Jupyter substitute).

The paper's Analyzer is a Jupyter notebook; offline, this module renders
the same analyses — run summary, termination statistics, Pareto
frontier, prediction quality, curve gallery, structural fingerprints —
into a single self-contained Markdown document per run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.analysis.curves import termination_histogram
from repro.analysis.pareto import pareto_frontier
from repro.analysis.progress import search_progress
from repro.analysis.queries import CommonsQuery
from repro.analysis.stats import (
    bit_frequency_profile,
    flops_accuracy_correlation,
    prediction_error_summary,
)
from repro.analysis.viz import sparkline
from repro.lineage.commons import DataCommons

__all__ = ["render_run_report", "write_run_report"]


def _table(headers: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def render_run_report(commons: DataCommons, run_id: str, *, top_k: int = 5) -> str:
    """Render one run's full analysis as Markdown text."""
    run = commons.load_run(run_id)
    records = commons.load_models(run_id)
    query = CommonsQuery(records)
    max_epochs = max((r.max_epochs for r in records), default=25) or 25

    sections: list[str] = [f"# Run report: `{run_id}`", ""]

    # -- run summary ----------------------------------------------------------
    sections += [
        "## Summary",
        "",
        _table(
            ["field", "value"],
            [
                ["beam intensity", run.intensity],
                ["models evaluated", run.n_models],
                ["epochs trained", run.total_epochs_trained],
                ["epochs saved", run.total_epochs_saved],
                ["mean fitness", f"{query.mean_fitness():.2f}%"],
                ["notes", run.notes or "-"],
            ],
        ),
        "",
    ]

    # -- termination statistics -------------------------------------------------
    summary = termination_histogram(records, max_epochs=max_epochs)
    histogram_line = sparkline(summary.histogram) or "-"
    sections += [
        "## Early termination (prediction engine)",
        "",
        f"- terminated early: **{summary.percent_terminated:.0f}%** of models",
        f"- mean termination epoch: **{summary.mean_termination_epoch:.1f}**"
        if summary.histogram.sum()
        else "- mean termination epoch: n/a",
        f"- e_t histogram (epochs 1..{max_epochs}): `{histogram_line}`",
        "",
    ]

    # -- prediction quality -------------------------------------------------------
    try:
        errors = prediction_error_summary(records)
        sections += [
            "## Prediction quality",
            "",
            f"Over {errors.n} early-terminated models, the engine's final "
            f"prediction differed from the last measured fitness by "
            f"**{errors.mean_abs_error:.2f}%** on average "
            f"(max {errors.max_abs_error:.2f}%, RMSE {errors.rmse:.2f}%).",
            "",
        ]
    except ValueError:
        sections += ["## Prediction quality", "", "No early-terminated models.", ""]

    # -- pareto frontier -------------------------------------------------------------
    frontier = pareto_frontier(records)
    sections += [
        "## Pareto frontier (accuracy vs FLOPs)",
        "",
        _table(
            ["model", "accuracy %", "MFLOPs"],
            [
                [p.model_id, f"{p.fitness:.2f}", f"{p.flops / 1e6:.2f}"]
                for p in frontier
            ],
        ),
        "",
    ]

    # -- correlation ---------------------------------------------------------------
    try:
        corr = flops_accuracy_correlation(records)
        correlation = (
            f"Spearman rho = **{corr.rho:+.2f}** (p = {corr.p_value:.3g}, n = {corr.n}; "
            f"{'significant' if corr.significant else 'not significant'} at alpha = 0.05)."
        )
    except ValueError as exc:
        correlation = f"Spearman rho = n/a ({exc})."
    sections += ["## FLOPs vs accuracy", "", correlation, ""]

    # -- top models with curve gallery -------------------------------------------------
    rows = []
    for record in query.top_by_fitness(top_k):
        rows.append(
            [
                record.model_id,
                record.generation,
                f"{record.fitness:.2f}",
                record.epochs_trained,
                "yes" if record.terminated_early else "no",
                f"`{sparkline(record.fitness_history)}`",
            ]
        )
    sections += [
        f"## Top {top_k} models",
        "",
        _table(
            ["model", "generation", "fitness %", "epochs", "early stop", "curve"],
            rows,
        ),
        "",
    ]

    # -- search progress ------------------------------------------------------------
    progress = search_progress(records)
    sections += [
        "## Search progress",
        "",
        f"- best-so-far trajectory: `{sparkline(progress.trajectory)}`",
        f"- final best: **{progress.final_best:.2f}%**",
        f"- evaluations to 95% of total improvement: "
        f"**{progress.evaluations_to_95_percent}** of {len(progress.trajectory)}",
        f"- evaluations since last improvement: {progress.stagnant_tail}",
        f"- per-generation best: `{sparkline(progress.generation_best)}`",
        "",
    ]

    # -- structural fingerprint -----------------------------------------------------------
    top = query.top_by_fitness(max(top_k, 3))
    profile_top = bit_frequency_profile(top)
    profile_all = bit_frequency_profile(records)
    enriched = int(np.argmax(profile_top - profile_all))
    sections += [
        "## Structural fingerprint",
        "",
        f"- genome bit frequency, top models: `{sparkline(profile_top)}`",
        f"- genome bit frequency, all models: `{sparkline(profile_all)}`",
        f"- connection bit most enriched in successful models: **#{enriched}**",
        "",
    ]

    return "\n".join(sections)


def write_run_report(
    commons: DataCommons, run_id: str, path: str | Path, *, top_k: int = 5
) -> Path:
    """Render and write the Markdown report; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_run_report(commons, run_id, top_k=top_k), encoding="utf-8")
    return path
