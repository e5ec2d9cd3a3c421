"""Sequential network container.

Architectures decoded from NSGA-Net genomes are directed chains of
stages, so a sequential container suffices (skip connections inside a
phase are materialized by the decoder as summed channel stacks; see
:mod:`repro.nas.decoder`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.nn.layers.base import Layer, Parameter

__all__ = ["Network"]


class Network:
    """An ordered stack of layers with whole-network train/infer passes.

    Parameters
    ----------
    layers:
        Layers applied in order.
    input_shape:
        Per-sample input shape, e.g. ``(1, 32, 32)`` for grayscale
        images; required for shape/FLOP introspection and summaries.
    name:
        Identifier used in lineage records.
    """

    def __init__(
        self,
        layers: Iterable[Layer] = (),
        *,
        input_shape: tuple | None = None,
        name: str = "network",
    ) -> None:
        self.layers: list[Layer] = list(layers)
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.name = str(name)
        # opt-in numerical watchdog (repro.tooling.sanitizer.Sanitizer);
        # duck-typed so nn/ stays decoupled from the tooling package
        self.sanitizer = None
        # opt-in write guard (repro.tooling.sanitizer.WriteGuard): flips
        # borrowed inter-layer tensors read-only around layer calls
        self.write_guard = None
        # pinned scratch storage (repro.nn.arena.BufferArena); while None
        # every layer hands out fresh arrays (see Layer._buf)
        self.arena = None

    def add(self, layer: Layer) -> "Network":
        """Append a layer; returns self for chaining."""
        self.layers.append(layer)
        layer.bind_arena(self.arena, owner=str(len(self.layers) - 1))
        return self

    def bind_arena(self, arena) -> "Network":
        """Pin every layer's scratch in ``arena``.

        Each layer binds under its stack index as the owner key, so no
        two layers can alias each other's buffers.  From here on a
        layer's output is only valid until that layer's next forward.
        """
        self.arena = arena
        for idx, layer in enumerate(self.layers):
            layer.bind_arena(arena, owner=str(idx))
        return self

    # -- computation ---------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack."""
        if self.sanitizer is None and self.write_guard is None:
            for layer in self.layers:
                x = layer.forward(x, training=training)
            return x
        for index, layer in enumerate(self.layers):
            x_in = x
            if self.write_guard is not None:
                x = self.write_guard.guard_forward(index, layer, x, training=training)
            else:
                x = layer.forward(x, training=training)
            if self.sanitizer is not None:
                self.sanitizer.after_layer_forward(index, layer, x_in, x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate from the loss gradient; returns dL/d(input)."""
        if self.sanitizer is None and self.write_guard is None:
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            return grad
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            if self.write_guard is not None:
                grad = self.write_guard.guard_backward(index, layer, grad)
            else:
                grad = layer.backward(grad)
            if self.sanitizer is not None:
                self.sanitizer.after_layer_backward(index, layer, grad)
        return grad

    def predict(self, x: np.ndarray, *, batch_size: int = 256) -> np.ndarray:
        """Inference in eval mode, batched to bound peak memory.

        Each chunk is copied into the result before the next forward
        runs — a bound head layer returns the same pinned buffer for
        every chunk — so the result is by value either way.
        """
        if len(x) == 0:
            raise ValueError("predict needs at least one sample")
        result = None
        for i in range(0, len(x), batch_size):
            out = self.forward(x[i : i + batch_size], training=False)
            if result is None:
                result = np.empty((len(x),) + out.shape[1:], dtype=out.dtype)
            result[i : i + len(out)] = out
        return result

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    # -- parameters ------------------------------------------------------------

    def parameters(self) -> Iterator[tuple[str, Parameter]]:
        """Iterate ``("<idx>.<name>", parameter)`` over all layers."""
        for idx, layer in enumerate(self.layers):
            for pname, param in layer.parameters():
                yield f"{idx}.{pname}", param

    def n_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(layer.n_parameters() for layer in self.layers)

    def zero_grad(self) -> None:
        """Reset every parameter gradient."""
        for layer in self.layers:
            layer.zero_grad()

    # -- introspection -----------------------------------------------------------

    def _require_input_shape(self) -> tuple:
        if self.input_shape is None:
            raise RuntimeError(
                "network has no input_shape; pass it to the constructor for "
                "shape/FLOP introspection"
            )
        return self.input_shape

    def layer_shapes(self) -> list[tuple]:
        """Per-sample output shape after each layer."""
        shape = self._require_input_shape()
        shapes = []
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append(shape)
        return shapes

    def output_shape(self) -> tuple:
        """Per-sample shape produced by the final layer."""
        shapes = self.layer_shapes()
        return shapes[-1] if shapes else self._require_input_shape()

    def flops(self) -> int:
        """Total forward FLOPs per sample (see :mod:`repro.nn.flops`)."""
        from repro.nn.flops import network_flops

        return network_flops(self)

    def summary(self) -> str:
        """Human-readable per-layer table (shapes, params, FLOPs)."""
        from repro.nn.flops import layer_flops_table

        rows = layer_flops_table(self)
        header = f"{'#':>3}  {'layer':<28} {'output shape':<18} {'params':>10} {'flops':>14}"
        lines = [f"Network {self.name!r}", header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['index']:>3}  {row['layer']:<28} {str(row['output_shape']):<18} "
                f"{row['params']:>10,} {row['flops']:>14,}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"total params: {self.n_parameters():,}   total flops/sample: {self.flops():,}"
        )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:
        return f"Network(name={self.name!r}, layers={len(self.layers)}, params={self.n_parameters():,})"
