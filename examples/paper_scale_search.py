#!/usr/bin/env python
"""Paper-scale A4NN vs standalone NSGA-Net with the full workflow stack.

Runs the paper's exact Table 1 + Table 2 configuration (100 networks ×
25-epoch budget) in surrogate mode at every beam intensity, through the
complete orchestrator: prediction engine, NSGA-Net, lineage tracking,
data-commons publication, and discrete-event wall-time simulation on 1
and 4 GPUs.  Takes a couple of minutes; prints the headline numbers of
Figures 7 and 9 and Table 3.

Run:  python examples/paper_scale_search.py [commons_dir]
"""

import sys
import tempfile

from repro.analysis import top_by_fitness
from repro.experiments import paper_config
from repro.lineage import DataCommons
from repro.workflow import run_comparison
from repro.xfel import BeamIntensity


def main() -> None:
    commons_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="a4nn_commons_")
    print(f"data commons: {commons_dir}\n")

    for intensity in BeamIntensity:
        config = paper_config(intensity)
        comparison = run_comparison(config, commons_path=commons_dir)

        a4nn, standalone = comparison.a4nn, comparison.standalone
        print(f"== {intensity.label} beam intensity ==")
        print(
            f"  networks evaluated : {len(a4nn.search.archive)} "
            f"(pop {config.nas.population_size}, {config.nas.generations} generations)"
        )
        print(
            f"  epochs             : standalone {standalone.total_epochs_trained}, "
            f"A4NN {a4nn.total_epochs_trained} "
            f"({comparison.epochs_saved_percent:.1f}% saved)"
        )
        print(
            f"  wall time (1 GPU)  : standalone {standalone.walltime[1].wall_hours:.2f} h, "
            f"A4NN {a4nn.walltime[1].wall_hours:.2f} h "
            f"({comparison.walltime_saved_hours(1):.1f} h saved)"
        )
        print(
            f"  wall time (4 GPUs) : A4NN {a4nn.walltime[4].wall_hours:.2f} h "
            f"({comparison.speedup(1, 4):.2f}x speedup, "
            f"{100 * a4nn.walltime[4].utilization:.0f}% utilization)"
        )
        print(f"  best accuracy      : {a4nn.search.population.best_fitness():.2f}%")
        print(
            f"  engine overhead    : "
            f"{sum(m.result.engine_overhead_seconds for m in a4nn.search.archive):.2f} s total\n"
        )

    commons = DataCommons(commons_dir)
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
