"""The run view: one Markdown document per run, read from its record files.

The paper's Analyzer is a Jupyter notebook reading the record trails the
lineage tracker writes into the commons *in situ*; offline, this module
renders the same analyses — run summary, termination statistics, Pareto
frontier, prediction quality, curve gallery, structural fingerprints —
from whatever model files a run has, so a live or killed run reads as
well as a published one.  ``a4nn analyze`` prints it.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.curves import termination_histogram
from repro.analysis.pareto import pareto_frontier
from repro.analysis.progress import search_progress
from repro.analysis.queries import mean_fitness, top_by_fitness
from repro.analysis.stats import (
    bit_frequency_profile,
    flops_accuracy_correlation,
    prediction_error_summary,
)
from repro.analysis.viz import sparkline
from repro.lineage.commons import DataCommons

__all__ = ["render_run_report"]


def _table(headers: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def render_run_report(commons: DataCommons, run_id: str, *, top_k: int = 5) -> str:
    """Render one run's full analysis as Markdown text."""
    from repro.workflow.interfaces import WorkflowConfig

    config = WorkflowConfig.from_dict(commons.load_run(run_id).workflow_config)
    records = commons.load_models(run_id)
    complete = run_id in commons.run_ids()
    committed = len(records)
    if not complete:
        committed = f"{committed} of {config.nas.total_evaluations}"
    max_epochs = max((r.max_epochs for r in records), default=25) or 25

    sections: list[str] = [f"# Run report: `{run_id}`", ""]

    # -- run summary: the stored config, then sums over the record files -------
    sections += [
        "## Summary",
        "",
        _table(
            ["field", "value"],
            [
                ["beam intensity", config.intensity.label],
                ["models evaluated", committed],
                ["epochs trained", sum(r.epochs_trained for r in records)],
                ["epochs saved", sum(r.epochs_saved for r in records)],
                ["epochs skipped", sum(r.epochs_skipped for r in records)],
                ["quarantined models", sum(r.quarantined for r in records)],
                ["cache hits", sum(r.cache_hit for r in records)],
                ["mean fitness", f"{mean_fitness(records):.2f}%" if records else "n/a"],
                ["notes", f"mode={config.mode}, seed={config.seed}"],
                [
                    "status",
                    "complete"
                    if complete
                    else "incomplete: in progress or killed; `resume_workflow` continues it",
                ],
            ],
        ),
        "",
    ]
    if not records:
        return "\n".join(sections)

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
    for record in top_by_fitness(records, top_k):
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
    evaluations = len(progress.trajectory)
    reach = f"**{progress.evaluations_to_95_percent}** of {evaluations}"
    if progress.final_best == progress.trajectory[0]:
        reach = f"none, no improvement in {evaluations} evaluations"
    sections += [
        "## Search progress",
        "",
        f"- best-so-far trajectory: `{sparkline(progress.trajectory)}`",
        f"- final best: **{progress.final_best:.2f}%**",
        f"- evaluations to 95% of total improvement: {reach}",
        f"- evaluations since last improvement: {progress.stagnant_tail}",
        f"- per-generation best: `{sparkline(progress.generation_best)}`",
        "",
    ]

    # -- structural fingerprint -----------------------------------------------------------
    top = top_by_fitness(records, max(top_k, 3))
    profile_top = bit_frequency_profile(top)
    profile_all = bit_frequency_profile(records)
    enriched = f"**#{int(np.argmax(profile_top - profile_all))}**"
    if len({r.fitness for r in records if r.fitness is not None}) == 1:
        enriched = "none, every model has the same fitness (no improvement)"
    sections += [
        "## Structural fingerprint",
        "",
        f"- genome bit frequency, top models: `{sparkline(profile_top)}`",
        f"- genome bit frequency, all models: `{sparkline(profile_all)}`",
        f"- connection bit most enriched in successful models: {enriched}",
        "",
    ]

    return "\n".join(sections)

