"""Model checkpointing.

The workflow orchestrator "writes the partially trained NN's state to
memory, such that each model can be loaded and re-evaluated from any
point in the training phase" (§2.2.2).  A checkpoint is two artifacts:

* an architecture document (JSON) — layer class names and configs plus
  the input shape, enough to rebuild the network structure; and
* a state archive (NPZ) — every trainable parameter plus batch-norm
  running statistics, keyed by ``<layer idx>.<name>``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.layers import LAYER_TYPES
from repro.nn.network import Network
from repro.utils.io import atomic_write_json, atomic_write_npz, read_json, read_npz

__all__ = [
    "architecture_config",
    "network_from_config",
    "state_dict",
    "load_state_dict",
    "save_checkpoint",
    "load_checkpoint",
]


def architecture_config(network: Network) -> dict:
    """Structure-only description sufficient to rebuild the network."""
    return {
        "name": network.name,
        "input_shape": list(network.input_shape) if network.input_shape else None,
        "layers": [
            {"type": type(layer).__name__, "config": layer.get_config()}
            for layer in network.layers
        ],
    }


def network_from_config(config: dict) -> Network:
    """Rebuild a network's structure (weights are freshly initialized)."""
    layers = []
    for spec in config["layers"]:
        try:
            cls = LAYER_TYPES[spec["type"]]
        except KeyError:
            raise ValueError(f"unknown layer type {spec['type']!r} in checkpoint") from None
        layers.append(cls(**spec["config"]))
    input_shape = tuple(config["input_shape"]) if config.get("input_shape") else None
    return Network(layers, input_shape=input_shape, name=config.get("name", "network"))


def state_dict(network: Network) -> dict[str, np.ndarray]:
    """All mutable arrays: parameters + per-layer non-trainable state."""
    state = {name: param.value.copy() for name, param in network.parameters()}
    for idx, layer in enumerate(network.layers):
        for key, value in layer.state().items():
            state[f"{idx}.{key}"] = np.asarray(value)
    return state


def load_state_dict(network: Network, state: dict[str, np.ndarray]) -> Network:
    """Load arrays into an architecture-compatible network, strictly."""
    # restoring a checkpoint rewrites the network's parameters in place by contract
    remaining = dict(state)
    for name, param in network.parameters():
        if name not in remaining:
            raise KeyError(f"checkpoint missing parameter {name!r}")
        value = np.asarray(remaining.pop(name))
        if value.shape != param.value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: checkpoint {value.shape} vs model {param.value.shape}"
            )
        # cast into the model's compute dtype (set at construction from
        # the layer config), not a hard-coded precision: a float32
        # network restored from a float64 archive stays float32
        param.value = value.astype(param.value.dtype)
        param.grad = np.zeros_like(param.value)
    for idx, layer in enumerate(network.layers):
        expected = layer.state()
        collected = {}
        for key in expected:
            full = f"{idx}.{key}"
            if full not in remaining:
                raise KeyError(f"checkpoint missing layer state {full!r}")
            collected[key] = remaining.pop(full)
        if collected:
            layer.load_state(collected)
    if remaining:
        raise KeyError(f"checkpoint has unused entries: {sorted(remaining)}")
    return network


def save_checkpoint(network: Network, directory: str | Path, *, tag: str = "checkpoint") -> dict:
    """Persist architecture + state under ``directory`` with file stem ``tag``.

    Returns the paths written, for lineage records.
    """
    directory = Path(directory)
    arch_path = atomic_write_json(directory / f"{tag}.arch.json", architecture_config(network))
    state_path = atomic_write_npz(directory / f"{tag}.state.npz", state_dict(network))
    return {"architecture": str(arch_path), "state": str(state_path)}


def load_checkpoint(directory: str | Path, *, tag: str = "checkpoint") -> Network:
    """Rebuild the network saved by :func:`save_checkpoint`."""
    directory = Path(directory)
    network = network_from_config(read_json(directory / f"{tag}.arch.json"))
    return load_state_dict(network, read_npz(directory / f"{tag}.state.npz"))
