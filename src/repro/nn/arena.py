"""Per-network buffer arena: preallocated scratch reused across batches.

Every layer kernel writes its intermediates — conv row columns, layer
outputs, gradient images — with ``out=`` into scratch it requests
through :meth:`~repro.nn.layers.base.Layer._buf` (or, for temporaries
that die inside the call, :meth:`~repro.nn.layers.base.Layer._tmp`).
Bound to a
:class:`BufferArena`, that request is keyed, lazily-allocated,
shape-stable storage: a layer asks for ``(owner, name, shape, dtype)``
and gets the *same* ndarray back on every batch, so after the first
epoch the training loop reaches a steady state with zero new large
allocations.  :class:`~repro.nn.trainer.Trainer` binds one to the
network it trains.

Design rules (see DESIGN "The buffer arena"):

* **Keying** — buffers are keyed by ``(owner, name, shape, dtype)``.
  Including the shape means a ragged last batch gets its own buffer
  instead of thrashing a single slot between two sizes; steady state is
  reached after one epoch, and :attr:`nbytes` reports the true peak.
* **Ownership** — every layer instance binds with a unique owner string
  (the network wires ``"<layer-idx>"``, composite layers extend it with
  sublayer paths), so two layers can never alias each other's scratch.
* **Lifetime** — three classes.  A bound layer's *output* (and the
  gradient it returns) is valid until that layer's next ``forward``
  (``backward``); what it *caches for backward* until the matching
  backward of the same batch; both are owner-keyed.  A *call-local*
  temporary (:meth:`BufferArena.scratch`) is keyed by ``(name, shape,
  dtype)`` alone and shared by every layer of the network, so it is
  never returned, cached, or live across another layer's call — the
  nine same-shaped convs of a decoded network reuse one cache-warm
  block instead of pinning nine cold ones.  An unbound layer runs the
  same kernels on fresh arrays and so returns by value.

The arena is deliberately not picklable state: it is rebuilt per
evaluation, and the process backend ships measurements, never buffers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import resolve_dtype

__all__ = ["BufferArena"]


class BufferArena:
    """Keyed pool of reusable ndarrays for one network's training loop.

    Parameters
    ----------
    dtype:
        Default element type for buffers requested without an explicit
        dtype — the network's compute dtype.  Bool buffers (activation
        and pooling-route masks) always pass their dtype explicitly.
    """

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self._buffers: dict[tuple, np.ndarray] = {}

    def buffer(self, owner: str, name: str, shape: tuple, dtype=None) -> np.ndarray:
        """The pinned buffer for ``(owner, name, shape, dtype)``.

        Allocated with ``np.empty`` on first request (callers that need
        zeros zero it explicitly — most GEMM/gather consumers overwrite
        every element anyway), then returned as-is forever after.
        """
        dtype = np.dtype(self.dtype if dtype is None else dtype)
        key = (owner, name, tuple(shape), dtype.str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def scratch(self, name: str, shape: tuple, dtype=None) -> np.ndarray:
        """The shared call-local buffer for ``(name, shape, dtype)``.

        No owner in the key: every layer asking for the same name, shape
        and dtype gets the same array, so it must be dead before the
        requesting ``forward``/``backward`` returns.  (Stored under the
        empty owner, which ``Layer.bind_arena`` never hands to a layer.)
        """
        return self.buffer("", name, shape, dtype)

    @property
    def nbytes(self) -> int:
        """Total bytes pinned — the per-evaluation peak-scratch figure."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every buffer (the next request reallocates)."""
        self._buffers.clear()

    def __repr__(self) -> str:
        return (
            f"BufferArena(dtype={np.dtype(self.dtype).name}, "
            f"buffers={self.n_buffers}, nbytes={self.nbytes})"
        )
