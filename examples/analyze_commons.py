#!/usr/bin/env python
"""The Analyzer: explore a published data commons.

Replays the paper's §2.4/§4.5 analysis workflow offline: build (or
reuse) a commons, then query it — learning-curve shapes, termination
statistics, FLOPs/accuracy correlation, structural fingerprints of
successful architectures, and a rendered record trail of one
near-optimal model (the paper's "NN Model 51" figure).

Run:  python examples/analyze_commons.py [commons_dir]
"""

import sys
import tempfile
from collections import Counter

import numpy as np

from repro.analysis import (
    ascii_curve,
    bit_frequency_profile,
    describe_curve,
    flops_accuracy_correlation,
    prediction_error_summary,
    sparkline,
    termination_histogram,
    top_by_fitness,
)
from repro.experiments import paper_config
from repro.lineage import DataCommons
from repro.workflow import run_workflow
from repro.xfel import BeamIntensity


def ensure_commons(commons_dir: str) -> DataCommons:
    """Reuse an existing commons or publish one low-intensity run."""
    commons = DataCommons(commons_dir)
    if not commons.run_ids():
        print("empty commons — running one paper-scale low-intensity search...")
        run_workflow(paper_config(BeamIntensity.LOW), commons_path=commons_dir)
    return commons


def main() -> None:
    commons_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="a4nn_commons_")
    commons = ensure_commons(commons_dir)
    run_id = commons.run_ids()[0]
    records = commons.load_models(run_id)
    print(f"analyzing run {run_id!r}: {len(records)} model record trails\n")

    # -- aggregate statistics ------------------------------------------------
    summary = termination_histogram(records, max_epochs=records[0].max_epochs)
    print(
        f"early termination: {summary.percent_terminated:.0f}% of models, "
        f"mean e_t {summary.mean_termination_epoch:.1f}"
    )
    corr = flops_accuracy_correlation(records)
    print(
        f"FLOPs vs accuracy: Spearman rho {corr.rho:+.2f} "
        f"(p={corr.p_value:.3f}, {'significant' if corr.significant else 'not significant'})"
    )
    errors = prediction_error_summary(records)
    print(
        f"prediction quality: mean |pred - measured| {errors.mean_abs_error:.2f}% "
        f"over {errors.n} terminated models\n"
    )

    # -- structural fingerprint ----------------------------------------------
    top = top_by_fitness(records, 10)
    profile_top = bit_frequency_profile(top)
    profile_all = bit_frequency_profile(records)
    print("genome bit frequency, top-10 models vs all:")
    print("  top-10:", sparkline(profile_top))
    print("  all   :", sparkline(profile_all))
    enriched = int(np.argmax(profile_top - profile_all))
    print(f"  most enriched connection bit in successful models: #{enriched}\n")

    # -- one model's record trail (the paper's 'Model 51' view) ---------------
    best = top[0]
    print(f"record trail of model {best.model_id} (fitness {best.fitness:.2f}%):")
    shape = describe_curve(best.fitness_history)
    print(
        f"  curve: {shape.n_epochs} epochs, gain {shape.total_gain:+.1f}%, "
        f"monotone {100 * shape.monotonicity:.0f}%, plateau at epoch {shape.plateau_epoch}"
    )
    print(ascii_curve(best.fitness_history, height=8))
    if best.prediction_history:
        print("  engine predictions:", sparkline(best.prediction_history))

    # -- models per generation -------------------------------------------------
    per_generation = Counter(r.generation for r in records)
    print(
        f"\nprovenance: {len(records)} models across {len(per_generation)} generations "
        f"({', '.join(str(per_generation[g]) for g in sorted(per_generation))} per generation)"
    )


if __name__ == "__main__":
    main()
