"""Terminal-friendly visualization of NN structures and curves.

The paper's Analyzer renders NN architectures (Figs. 3 and 10) and
learning-curve shapes interactively.  Offline, we render to text: an
architecture diagram of a decoded network (phase DAGs included) and an
ASCII sparkline/plot of learning curves.
"""

from __future__ import annotations

import numpy as np

from repro.nas.decoder import PhaseBlock
from repro.nas.genome import PhaseGenome
from repro.nn.network import Network

__all__ = ["render_network", "render_phase", "ascii_curve", "sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def render_phase(phase: PhaseGenome, *, indent: str = "") -> str:
    """Text diagram of one phase's node DAG."""
    matrix = phase.connection_matrix()
    lines = []
    for j in range(phase.n_nodes):
        preds = [i for i in range(j) if matrix[i, j]]
        source = " + ".join(f"node{i}" for i in preds) if preds else "input"
        lines.append(f"{indent}node{j} <- {source}")
    sinks = [j for j in range(phase.n_nodes) if not matrix[j].any()]
    output = " + ".join(f"node{j}" for j in sinks)
    if phase.skip:
        output += " + input (skip)"
    lines.append(f"{indent}output <- {output}")
    return "\n".join(lines)


def render_network(network: Network) -> str:
    """Architecture diagram: layer chain with phase DAGs expanded."""
    lines = [f"Architecture {network.name!r}"]
    shape = network.input_shape
    lines.append(f"  input {tuple(shape) if shape else '?'}")
    for idx, layer in enumerate(network.layers):
        if isinstance(layer, PhaseBlock):
            lines.append(
                f"  [{idx}] PhaseBlock {layer.in_channels}->{layer.out_channels}ch, "
                f"{layer.genome.n_nodes} nodes, bits={''.join(map(str, layer.genome.bits))}"
            )
            lines.append(render_phase(layer.genome, indent="        "))
        else:
            lines.append(f"  [{idx}] {layer!r}")
        if shape is not None:
            shape = layer.output_shape(shape)
            lines.append(f"        -> {tuple(shape)}")
    return "\n".join(lines)


def sparkline(values) -> str:
    """One-line unicode sparkline of a numeric series."""
    y = np.asarray(list(values), dtype=float)
    if y.size == 0:
        return ""
    lo, hi = float(y.min()), float(y.max())
    if hi - lo < 1e-12:
        return _BLOCKS[0] * y.size
    scaled = (y - lo) / (hi - lo) * (len(_BLOCKS) - 1)
    return "".join(_BLOCKS[int(round(s))] for s in scaled)


def ascii_curve(values, *, height: int = 10, width: int | None = None) -> str:
    """Multi-line ASCII plot of a learning curve (epochs on x)."""
    y = np.asarray(list(values), dtype=float)
    if y.size == 0:
        return "(empty curve)"
    if width is not None and y.size > width:
        # down-sample by averaging buckets
        edges = np.linspace(0, y.size, width + 1).astype(int)
        y = np.array([y[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    lo, hi = float(y.min()), float(y.max())
    span = hi - lo if hi > lo else 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = lo + span * (level - 0.5) / height
        row = "".join("#" if v >= threshold else " " for v in y)
        label = f"{lo + span * level / height:6.1f} |"
        rows.append(label + row)
    rows.append(" " * 7 + "-" * y.size)
    rows.append(" " * 7 + f"1..{len(values)} (epochs)")
    return "\n".join(rows)
