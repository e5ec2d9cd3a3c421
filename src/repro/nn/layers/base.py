"""Layer abstraction for the NumPy NN framework.

Every layer implements a ``forward``/``backward`` pair operating on
batched float arrays in the layer's compute dtype (float64 by default,
float32 on the workflow fast path — see :mod:`repro.nn.dtype`), exposes
its trainable parameters and their
gradients by name, reports its output shape and FLOP cost for a given
input shape, and serializes its configuration.  Convolutional data
layout is NCHW throughout (batch, channels, height, width) — channel-
contiguous inner dimensions keep the conv hot loops cache friendly.

Kernels write their results, and what ``backward`` will read, into
:meth:`Layer._buf` scratch with ``out=``, and temporaries that die
before the call returns into :meth:`Layer._tmp` scratch.  A layer bound
to a :class:`~repro.nn.arena.BufferArena` gets the same pinned arrays
every batch — its own for ``_buf`` (an output is valid until the
layer's next ``forward``, a backward cache until the matching
``backward``), one shared with every other layer for ``_tmp`` — except
that a composite binder may mark a result *node-internal*, which
``_buf`` then puts in shared scratch too; an unbound layer gets fresh
ones and so returns by value.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.dtype import resolve_dtype

__all__ = ["Layer", "Parameter"]


class Parameter:
    """A trainable array with its gradient accumulator.

    The stored dtype comes from the compute-dtype policy
    (:mod:`repro.nn.dtype`): ``dtype=None`` keeps the historical float64
    behaviour; layers constructed on the float32 fast path pass their
    resolved dtype through.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray, dtype=None) -> None:
        self.value = np.asarray(value, dtype=resolve_dtype(dtype))
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the gradient accumulator in place (no reallocation)."""
        self.grad[...] = 0.0


class Layer:
    """Base class: stateless by default, override what applies.

    Subclasses with trainable parameters register them in
    ``self.params`` (an ordered ``dict[str, Parameter]``).  Layers that
    behave differently in training vs. evaluation (dropout, batch norm)
    read the ``training`` flag passed to :meth:`forward`.
    """

    def __init__(self) -> None:
        self.params: dict[str, Parameter] = {}
        # optional BufferArena binding (repro.nn.arena): decides only
        # where _buf/_tmp scratch lives, never which kernel runs
        self._arena = None
        self._arena_owner: str = ""
        # _buf name -> shared scratch name, for the results a composite
        # binder marks node-internal (see bind_arena)
        self._transients: dict[str, str] = {}

    # -- scratch storage -----------------------------------------------------

    @property
    def arena(self):
        """The bound :class:`~repro.nn.arena.BufferArena`, or ``None``."""
        return self._arena

    def bind_arena(self, arena, owner: str = "", transients: dict | None = None) -> None:
        """Attach ``arena`` under a unique ``owner`` key.

        Composite layers override this to propagate the binding to their
        sublayers with extended owner paths.  ``transients`` maps a
        :meth:`_buf` name to a shared scratch name: the binder marks
        that result node-internal — read once, by the next layer it
        calls — and routes it so that no layer writes what it reads.
        """
        self._arena = arena
        self._arena_owner = owner or type(self).__name__
        self._transients = transients or {}

    def _buf(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Uninitialized scratch for a result or a backward cache.

        Bound, it is the arena's pinned buffer for this layer and
        ``name`` — the same array every batch of that size (a leading
        view of the block the largest batch sized), valid until the
        layer's next ``forward``.  A result the binder marked
        node-internal (see :meth:`bind_arena`) is instead the arena's
        shared scratch under the name the binder gave it: valid only
        until the binder's next layer has read it.  Unbound, it is a fresh
        array, so a bare layer hands out by-value results.  The kernels
        write every element either way; this is the only place the cases
        differ.
        """
        if self._arena is None:
            return np.empty(shape, dtype=dtype)
        shared = self._transients.get(name)
        if shared is not None:
            return self._arena.scratch(shared, shape, dtype)
        return self._arena.buffer(self._arena_owner, name, shape, dtype)

    def _tmp(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Uninitialized *call-local* scratch: dead before this call returns.

        Bound, it is one arena block per ``(name, shape[1:], dtype)``
        shared by every layer of the network (the same-shaped layers of a phase
        reuse one cache-warm block instead of pinning one each), so it is
        never returned, cached for ``backward``, or live across another
        layer's call.  Unbound, it is a fresh array, like :meth:`_buf`.
        """
        if self._arena is None:
            return np.empty(shape, dtype=dtype)
        return self._arena.scratch(name, shape, dtype)

    # -- computation ---------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output; cache what backward needs."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/d(output), accumulate parameter grads and return dL/d(input)."""
        raise NotImplementedError

    # -- shape and cost ------------------------------------------------------

    def output_shape(self, input_shape: tuple) -> tuple:
        """Per-sample output shape for a per-sample ``input_shape``.

        Defaults to shape-preserving (elementwise layers).
        """
        return tuple(input_shape)

    def flops(self, input_shape: tuple) -> int:
        """Forward-pass floating-point operations per sample.

        Defaults to 0 for layers that are pure data movement.
        Multiply-accumulate counts as 2 FLOPs.
        """
        return 0

    # -- parameters ------------------------------------------------------------

    def parameters(self) -> Iterator[tuple[str, Parameter]]:
        """Iterate ``(name, parameter)`` pairs."""
        yield from self.params.items()

    def n_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.params.values())

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for param in self.params.values():
            param.zero_grad()

    # -- non-trainable state ------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable mutable arrays (e.g. batch-norm running stats).

        Checkpointing saves these alongside parameters; layers without
        such state return an empty dict.
        """
        return {}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore arrays produced by :meth:`state`."""
        if state:
            raise KeyError(
                f"{type(self).__name__} holds no state, got keys {sorted(state)}"
            )

    # -- serialization ----------------------------------------------------------

    def get_config(self) -> dict:
        """Constructor arguments needed to rebuild this layer."""
        return {}

    def __repr__(self) -> str:
        config = ", ".join(f"{k}={v!r}" for k, v in self.get_config().items())
        return f"{type(self).__name__}({config})"
