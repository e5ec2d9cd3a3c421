"""FLOP accounting.

NSGA-Net's second objective is minimizing inference cost; the paper
reports FLOPS as "a proxy for energy consumed by a neural architecture".
We count forward-pass floating-point operations per sample (one
multiply-accumulate = 2 FLOPs) layer by layer, using the same shape
propagation the network uses for summaries.
"""

from __future__ import annotations

from repro.nn.network import Network

__all__ = ["network_flops", "layer_flops_table"]


def layer_flops_table(network: Network) -> list[dict]:
    """Per-layer rows: index, repr, output shape, param count, FLOPs."""
    shape = network._require_input_shape()
    rows = []
    for idx, layer in enumerate(network.layers):
        flops = layer.flops(shape)
        shape_out = layer.output_shape(shape)
        rows.append(
            {
                "index": idx,
                "layer": type(layer).__name__,
                "config": layer.get_config(),
                "input_shape": tuple(shape),
                "output_shape": tuple(shape_out),
                "params": layer.n_parameters(),
                "flops": int(flops),
            }
        )
        shape = shape_out
    return rows


def network_flops(network: Network) -> int:
    """Total forward FLOPs per sample."""
    return sum(row["flops"] for row in layer_flops_table(network))
