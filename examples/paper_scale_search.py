#!/usr/bin/env python
"""Paper-scale A4NN vs standalone NSGA-Net with the full workflow stack.

Runs the paper's exact Table 1 + Table 2 configuration (100 networks ×
25-epoch budget) in surrogate mode at every beam intensity, through the
complete orchestrator: prediction engine, NSGA-Net, lineage tracking and
data-commons publication.  The paired comparison and the discrete-event
wall time on 1 and 4 GPUs are then read from the published records, so
a second call on the same commons searches nothing.  Prints the headline
numbers of Figures 7 and 9 and Table 3.

Run:  python examples/paper_scale_search.py [commons_dir]
"""

import sys
import tempfile

from repro.analysis import compare_runs, top_by_fitness
from repro.experiments import paper_pairs
from repro.lineage import DataCommons
from repro.scheduler.simulator import simulate_walltime


def main() -> None:
    commons_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="a4nn_commons_")
    print(f"data commons: {commons_dir}\n")

    commons = DataCommons(commons_dir)
    for label, (config, a4nn, standalone) in paper_pairs(commons).items():
        comparison = compare_runs(a4nn, standalone)
        nas = config.effective_nas()
        baseline_1 = simulate_walltime(standalone, nas, 1)
        a4nn_1, a4nn_4 = (simulate_walltime(a4nn, nas, n) for n in (1, 4))

        print(f"== {label} beam intensity ==")
        print(
            f"  networks evaluated : {comparison.n_models[0]} "
            f"(pop {config.nas.population_size}, {config.nas.generations} generations)"
        )
        print(
            f"  epochs             : standalone {comparison.epochs_trained[1]}, "
            f"A4NN {comparison.epochs_trained[0]} "
            f"({comparison.epochs_saved_percent:.1f}% saved)"
        )
        print(
            f"  wall time (1 GPU)  : standalone {baseline_1.wall_hours:.2f} h, "
            f"A4NN {a4nn_1.wall_hours:.2f} h "
            f"({baseline_1.wall_hours - a4nn_1.wall_hours:.1f} h saved)"
        )
        print(
            f"  wall time (4 GPUs) : A4NN {a4nn_4.wall_hours:.2f} h "
            f"({a4nn_1.wall_seconds / a4nn_4.wall_seconds:.2f}x speedup, "
            f"{100 * a4nn_4.utilization:.0f}% utilization)"
        )
        print(f"  best accuracy      : {comparison.best_fitness[0]:.2f}%")
        print(
            f"  engine overhead    : "
            f"{sum(r.engine_overhead_seconds for r in a4nn):.2f} s total\n"
        )

    print(f"published runs: {len(commons.run_ids())}, commons size {commons.size_bytes() / 1e6:.1f} MB")
    run_id = commons.run_ids()[0]
    print(f"example query — top 3 models of {run_id}:")
    for record in top_by_fitness(commons.load_models(run_id), 3):
        print(
            f"  model {record.model_id:3d}: {record.fitness:.2f}% "
            f"({record.epochs_trained} epochs, early={record.terminated_early})"
        )


if __name__ == "__main__":
    main()
