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
from repro.experiments.runner import get_comparison
from repro.nas.decoder import DecoderConfig, decode_genome
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
    *, intensity: BeamIntensity = BeamIntensity.LOW, seed: int = DEFAULT_SEED
) -> Fig10Result:
    """Pick the highest-accuracy Pareto model of the A4NN archive and render it."""
    comparison = get_comparison(intensity, seed=seed)
    archive = comparison.a4nn.search.archive
    frontier = pareto_frontier(archive)
    best_point = max(frontier, key=lambda p: p.fitness)
    member = next(m for m in archive if m.model_id == best_point.model_id)

    network = decode_genome(
        member.genome,
        DecoderConfig(),
        rng=np.random.default_rng(0),
        name=f"model-{member.model_id}",
    )
    return Fig10Result(
        model_id=member.model_id,
        fitness=float(member.fitness),
        flops=int(member.flops),
        genome_key=member.genome.key(),
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
