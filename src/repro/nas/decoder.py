"""Genome → network decoder.

Materializes an NSGA-Net genome as a runnable
:class:`~repro.nn.network.Network`:

* each :class:`~repro.nas.genome.PhaseGenome` becomes a
  :class:`PhaseBlock` — a composite layer executing the phase's node DAG
  (every node is a conv→batch-norm→ReLU block on a shared channel
  width);
* phases are separated by 2×2 max pooling (NSGA-Net's spatial
  reduction);
* a global-average-pool + dense head produces class logits.

:class:`PhaseBlock` is registered with the layer serialization registry,
so decoded networks checkpoint/restore like any hand-built model.
"""

from __future__ import annotations

import numpy as np

from repro.nas.genome import Genome
from repro.nn.dtype import dtype_label, resolve_dtype
from repro.nn.layers import LAYER_TYPES, BatchNorm2D, Conv2D, Dense, GlobalAvgPool2D, MaxPool2D, ReLU
from repro.nn.layers.base import Layer, Parameter
from repro.nn.network import Network
from repro.utils.rng import fallback_rng

__all__ = ["PhaseBlock", "DecoderConfig", "decode_genome", "genome_flops"]


# what a node's conv, batch-norm and ReLU write to the two shared blocks
_NODE_TRANSIENTS = {
    "conv": {"out": "node_a", "grad_in": "node_a"},
    "bn": {"out": "node_b", "grad_in": "node_b"},
    "relu": {"grad_in": "node_a"},
}


class PhaseBlock(Layer):
    """One NSGA-Net phase: a DAG of conv-bn-relu nodes on shared width.

    Routing (per NSGA-Net's macro encoding):

    * a 1×1 conv adapter maps the incoming channel width to the phase
      width;
    * node ``j``'s input is the sum of its predecessors' outputs, or the
      adapted phase input when it has no predecessors;
    * the phase output is the sum of all *sink* nodes' outputs (nodes
      nobody consumes), plus the adapted input when the genome's skip
      bit is set.

    Parameters
    ----------
    n_nodes, bits:
        The phase genome (see :class:`~repro.nas.genome.PhaseGenome`).
    in_channels, out_channels:
        Incoming width and the phase's node width.
    rng:
        Weight-initialization generator.
    """

    def __init__(
        self,
        n_nodes: int,
        bits: tuple,
        in_channels: int,
        out_channels: int,
        *,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        from repro.nas.genome import PhaseGenome  # local to avoid cycle at import

        rng = rng if rng is not None else fallback_rng()
        self.genome = PhaseGenome(n_nodes, tuple(bits))
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.dtype = resolve_dtype(dtype)

        self.adapter = Conv2D(
            in_channels, out_channels, kernel_size=1, padding=0, rng=rng, dtype=self.dtype
        )
        self.nodes: list[list[Layer]] = []
        for _ in range(n_nodes):
            self.nodes.append(
                [
                    Conv2D(out_channels, out_channels, kernel_size=3, rng=rng, dtype=self.dtype),
                    BatchNorm2D(out_channels, dtype=self.dtype),
                    ReLU(),
                ]
            )

        matrix = self.genome.connection_matrix()
        self._preds = [list(np.flatnonzero(matrix[:, j])) for j in range(n_nodes)]
        has_succ = matrix.any(axis=1)
        self._sinks = [j for j in range(n_nodes) if not has_succ[j]]
        self._training_mode = False

    # -- sub-layer plumbing ----------------------------------------------------

    def _sublayers(self):
        yield "adapter", self.adapter
        for idx, node in enumerate(self.nodes):
            for part_name, part in zip(("conv", "bn", "relu"), node):
                yield f"node{idx}.{part_name}", part

    def parameters(self):
        for prefix, layer in self._sublayers():
            for name, param in layer.parameters():
                yield f"{prefix}.{name}", param

    def n_parameters(self) -> int:
        return sum(layer.n_parameters() for _, layer in self._sublayers())

    def zero_grad(self) -> None:
        for _, layer in self._sublayers():
            layer.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        collected = {}
        for prefix, layer in self._sublayers():
            for key, value in layer.state().items():
                collected[f"{prefix}.{key}"] = value
        return collected

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        remaining = dict(state)
        for prefix, layer in self._sublayers():
            expected = layer.state()
            sub = {}
            for key in expected:
                full = f"{prefix}.{key}"
                if full not in remaining:
                    raise KeyError(f"phase state missing {full!r}")
                sub[key] = remaining.pop(full)
            if sub:
                layer.load_state(sub)
        if remaining:
            raise KeyError(f"phase state has unused entries: {sorted(remaining)}")

    def bind_arena(self, arena, owner: str = "", transients: dict | None = None) -> None:
        """Propagate the arena to every sublayer with a dotted owner path.

        A node's conv and batch-norm outputs and the gradients its three
        layers return are node-internal: each is read once, by the next
        layer of the node (or copied or added into ``ng{p}`` /
        ``adapted_grad`` by :meth:`backward`), so they alternate between
        two shared blocks per shape, ``node_a`` and ``node_b``.  Forward
        is conv → a, batch-norm → b; backward ReLU → a, batch-norm → b,
        conv → a, so no layer writes the block it reads.  The ReLU
        output, a node's result, stays the node's own.
        """
        super().bind_arena(arena, owner, transients)
        self.adapter.bind_arena(arena, f"{self._arena_owner}.adapter")
        for idx, node in enumerate(self.nodes):
            for part_name, part in zip(_NODE_TRANSIENTS, node):
                part.bind_arena(
                    arena, f"{self._arena_owner}.node{idx}.{part_name}", _NODE_TRANSIENTS[part_name]
                )

    # -- computation -------------------------------------------------------------

    def _run_node(self, idx: int, x: np.ndarray, training: bool) -> np.ndarray:
        for part in self.nodes[idx]:
            x = part.forward(x, training=training)
        return x

    def _backprop_node(self, idx: int, grad: np.ndarray) -> np.ndarray:
        for part in reversed(self.nodes[idx]):
            grad = part.backward(grad)
        return grad

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # node outputs live in each node's own scratch (distinct owner
        # paths), so they stay valid for the whole phase pass
        adapted = self.adapter.forward(x, training=training)
        outputs: list[np.ndarray] = []
        for j in range(self.genome.n_nodes):
            preds = self._preds[j]
            if not preds:
                node_in = adapted
            elif len(preds) == 1:
                node_in = outputs[preds[0]]
            else:
                node_in = self._buf(f"nodein{j}", adapted.shape, adapted.dtype)
                np.add(outputs[preds[0]], outputs[preds[1]], out=node_in)
                for p in preds[2:]:
                    node_in += outputs[p]
            outputs.append(self._run_node(j, node_in, training=training))

        terms = [outputs[j] for j in self._sinks]
        if self.genome.skip:
            terms.append(adapted)
        if len(terms) == 1:
            result = terms[0]
        else:
            result = self._buf("result", terms[0].shape, terms[0].dtype)
            np.add(terms[0], terms[1], out=result)
            for term in terms[2:]:
                result += term
        self._training_mode = training
        return result

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self._training_mode:
            raise RuntimeError("backward called before a training-mode forward")
        n = self.genome.n_nodes
        dt = grad_out.dtype
        # a sink feeds no node, so nothing ever adds into its gradient:
        # it reads ``grad_out`` itself.  Any other node's running gradient
        # is copied into its own ``ng{j}`` scratch the moment it first
        # arrives, so the in-place ``+=`` below can never alias the
        # scratch of the layer that produced it
        node_grads: list = [None] * n
        for j in self._sinks:
            node_grads[j] = grad_out
        adapted_grad = None
        if self.genome.skip:
            adapted_grad = self._buf("adapted_grad", grad_out.shape, dt)
            np.copyto(adapted_grad, grad_out)

        for j in reversed(range(n)):
            if node_grads[j] is None:
                # unreachable by construction: every node is a sink or
                # has successors that already deposited a gradient
                continue
            grad_in = self._backprop_node(j, node_grads[j])
            preds = self._preds[j]
            if preds:
                for p in preds:
                    if node_grads[p] is None:
                        buf = self._buf(f"ng{p}", grad_in.shape, dt)
                        np.copyto(buf, grad_in)
                        node_grads[p] = buf
                    else:
                        node_grads[p] += grad_in
            else:
                if adapted_grad is None:
                    adapted_grad = self._buf("adapted_grad", grad_in.shape, dt)
                    np.copyto(adapted_grad, grad_in)
                else:
                    adapted_grad += grad_in
        return self.adapter.backward(adapted_grad)

    # -- shape & cost ---------------------------------------------------------------

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"PhaseBlock expects {self.in_channels} channels, got {input_shape}"
            )
        return (self.out_channels, h, w)

    def flops(self, input_shape: tuple) -> int:
        _, h, w = input_shape
        total = self.adapter.flops(input_shape)
        node_shape = (self.out_channels, h, w)
        per_node = sum(part.flops(node_shape) for part in self.nodes[0])
        total += per_node * self.genome.n_nodes
        # elementwise sums for multi-predecessor nodes, sinks, and skip
        adds = sum(max(len(p) - 1, 0) for p in self._preds)
        adds += max(len(self._sinks) - 1, 0) + (1 if self.genome.skip else 0)
        total += adds * int(np.prod(node_shape))
        return total

    def get_config(self) -> dict:
        return {
            "n_nodes": self.genome.n_nodes,
            "bits": list(self.genome.bits),
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "dtype": dtype_label(self.dtype),
        }


# Register for checkpoint round-trips.
LAYER_TYPES["PhaseBlock"] = PhaseBlock


class DecoderConfig:
    """Decoder knobs: per-phase channel widths and the input geometry.

    Parameters
    ----------
    input_shape:
        Per-sample NCHW-without-N shape, e.g. ``(1, 32, 32)``.
    n_classes:
        Output logits.
    channels:
        Channel width per phase; length must equal the genome's phase
        count.  Widths double per phase by default, as in NSGA-Net.
    dtype:
        Compute dtype for every decoded layer (``None`` keeps the
        framework default, float64 — see :mod:`repro.nn.dtype`).
    """

    def __init__(
        self,
        input_shape: tuple = (1, 32, 32),
        n_classes: int = 2,
        channels: tuple = (8, 16, 32),
        dtype=None,
    ) -> None:
        if len(input_shape) != 3:
            raise ValueError(f"input_shape must be (C, H, W), got {input_shape}")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if any(c <= 0 for c in channels):
            raise ValueError(f"channels must be positive, got {channels}")
        self.input_shape = tuple(input_shape)
        self.n_classes = int(n_classes)
        self.channels = tuple(int(c) for c in channels)
        self.dtype = resolve_dtype(dtype)


def decode_genome(
    genome: Genome,
    config: DecoderConfig | None = None,
    *,
    rng: np.random.Generator | None = None,
    name: str | None = None,
    canonical: bool = False,
) -> Network:
    """Build the runnable network a genome encodes.

    Pooling between phases halves the spatial extent; the decoder
    validates that the input is large enough for the phase count.

    With ``canonical=True`` the genome is connectivity-normalized first
    (:meth:`~repro.nas.genome.Genome.canonical`), so every member of an
    isomorphism class materializes as the *same* network — the property
    the evaluation cache relies on.
    """
    config = config or DecoderConfig()
    rng = rng if rng is not None else fallback_rng()
    if canonical:
        genome = genome.canonical()
    _check_geometry(genome, config)

    layers: list = []
    in_channels = config.input_shape[0]
    for idx, (phase, width) in enumerate(zip(genome.phases, config.channels)):
        layers.append(
            PhaseBlock(
                phase.n_nodes, phase.bits, in_channels, width, rng=rng, dtype=config.dtype
            )
        )
        in_channels = width
        if idx < genome.n_phases - 1:
            layers.append(MaxPool2D(2))
    layers.append(GlobalAvgPool2D())
    layers.append(Dense(in_channels, config.n_classes, rng=rng, dtype=config.dtype))

    return Network(
        layers,
        input_shape=config.input_shape,
        name=name or f"nsga-{genome.key()}",
    )


def _check_geometry(genome: Genome, config: DecoderConfig) -> None:
    """Reject a genome/config pair :func:`decode_genome` cannot build."""
    if genome.n_phases != len(config.channels):
        raise ValueError(
            f"genome has {genome.n_phases} phases but decoder config provides "
            f"{len(config.channels)} channel widths"
        )
    _, h, w = config.input_shape
    min_extent = 2 ** (genome.n_phases - 1)
    if min(h, w) < min_extent * 2:
        raise ValueError(
            f"input {h}x{w} too small for {genome.n_phases} phases "
            f"(needs >= {min_extent * 2})"
        )


def genome_flops(
    genome: Genome, config: DecoderConfig | None = None, *, canonical: bool = False
) -> int:
    """``network_flops(decode_genome(genome, config, canonical=canonical))``
    from shapes alone: no layer is built and no weight drawn.

    Restates the layers' ``flops`` formulas and the routing sums of
    :meth:`PhaseBlock.flops`; the equality is property-tested.
    """
    config = config or DecoderConfig()
    if canonical:
        genome = genome.canonical()
    _check_geometry(genome, config)
    in_channels, h, w = config.input_shape
    total = 0
    for idx, (phase, width) in enumerate(zip(genome.phases, config.channels)):
        matrix = phase.connection_matrix()
        # elementwise sums: extra predecessors per node, extra sinks, skip
        adds = int(np.maximum(matrix.sum(axis=0) - 1, 0).sum())
        adds += int((~matrix.any(axis=1)).sum()) - 1 + int(phase.skip)
        # 1x1 adapter, then per node a 3x3 conv (+bias), batch norm (4) and ReLU (1)
        per_pixel = (2 * in_channels + 1) * width
        per_pixel += phase.n_nodes * ((2 * 9 * width + 1) * width + 5 * width)
        total += (per_pixel + adds * width) * h * w
        in_channels = width
        if idx < genome.n_phases - 1:
            h, w = (h - 2) // 2 + 1, (w - 2) // 2 + 1
            total += 3 * in_channels * h * w  # 2x2 max pooling
    total += in_channels * h * w  # global average pooling
    total += (2 * in_channels + 1) * config.n_classes  # dense head (+bias)
    return total
