"""The Analyzer (paper §2.4): analytics over searches and the commons.

Pareto frontiers (:mod:`repro.analysis.pareto`), learning-curve shape
and termination analytics (:mod:`repro.analysis.curves`), fluent commons
queries (:mod:`repro.analysis.queries`), architecture/curve rendering
(:mod:`repro.analysis.viz`), and the statistical questions the paper's
conclusions pose (:mod:`repro.analysis.stats`).
"""

from repro.analysis.compare import RunComparison, compare_runs
from repro.analysis.curves import (
    CurveShape,
    TerminationSummary,
    describe_curve,
    termination_histogram,
    true_curves,
)
from repro.analysis.pareto import (
    ParetoPoint,
    frontier_table,
    hypervolume_2d,
    pareto_frontier,
)
from repro.analysis.progress import SearchProgress, best_so_far, search_progress
from repro.analysis.queries import (
    CommonsQuery,
    SkipReport,
    TrainingMatrix,
    records_to_table,
    skip_report,
    training_matrix,
)
from repro.analysis.report import render_run_report, write_run_report
from repro.analysis.stats import (
    CorrelationResult,
    bit_frequency_profile,
    flops_accuracy_correlation,
    prediction_error_summary,
    structural_similarity,
)
from repro.analysis.viz import ascii_curve, render_network, render_phase, sparkline

__all__ = [
    "RunComparison",
    "compare_runs",
    "CurveShape",
    "TerminationSummary",
    "describe_curve",
    "termination_histogram",
    "true_curves",
    "ParetoPoint",
    "frontier_table",
    "hypervolume_2d",
    "pareto_frontier",
    "SearchProgress",
    "best_so_far",
    "search_progress",
    "CommonsQuery",
    "records_to_table",
    "TrainingMatrix",
    "training_matrix",
    "SkipReport",
    "skip_report",
    "render_run_report",
    "write_run_report",
    "CorrelationResult",
    "bit_frequency_profile",
    "flops_accuracy_correlation",
    "prediction_error_summary",
    "structural_similarity",
    "ascii_curve",
    "render_network",
    "render_phase",
    "sparkline",
]
