"""Figures 3 & 10: rendering a near-optimal architecture's structure.

The paper's Analyzer visualizes NN structures (Fig. 3 shows the
notation, Fig. 10 shows "NN Model 51", a near-optimal network for low
beam intensity).  We regenerate the analysis: take the low-intensity
paper-scale archive, pick a Pareto-optimal model, decode its genome, and
render its full structure (phase DAGs, shapes, FLOPs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.pareto import pareto_frontier
from repro.analysis.viz import render_network
from repro.experiments.configs import DEFAULT_SEED
from repro.experiments.grid import paper_pairs
from repro.lineage.commons import DataCommons
from repro.nas.decoder import DecoderConfig, decode_genome
from repro.nas.genome import Genome
from repro.xfel.intensity import BeamIntensity

__all__ = ["Fig10Result", "run_fig10", "format_fig10"]


@dataclass
class Fig10Result:
    """A near-optimal model and its rendered structure."""

    model_id: int
    fitness: float
    flops: int
    genome_key: str
    rendering: str


def run_fig10(
    commons: DataCommons,
    *,
    intensity: BeamIntensity = BeamIntensity.LOW,
    seed: int = DEFAULT_SEED,
) -> Fig10Result:
    """Pick the highest-accuracy Pareto model of the A4NN records and render it."""
    pairs = paper_pairs(commons, seed=seed, intensities=(intensity,), standalone=False)
    _, records, _ = pairs[intensity.label]
    best_point = max(pareto_frontier(records), key=lambda p: p.fitness)
    record = next(r for r in records if r.model_id == best_point.model_id)
    genome = Genome.from_dict(record.genome)
    network = decode_genome(
        genome,
        DecoderConfig(),
        rng=np.random.default_rng(0),
        name=f"model-{record.model_id}",
    )
    return Fig10Result(
        model_id=record.model_id,
        fitness=float(record.fitness),
        flops=int(record.flops),
        genome_key=genome.key(),
        rendering=render_network(network),
    )


def format_fig10(result: Fig10Result) -> str:
    """Header line plus the full rendered architecture."""
    header = (
        f"== Figure 10: near-optimal NN for low beam intensity ==\n"
        f"model {result.model_id}: {result.fitness:.2f}% accuracy, "
        f"{result.flops / 1e6:.2f} MFLOPs, genome {result.genome_key}\n"
    )
    return header + result.rendering
