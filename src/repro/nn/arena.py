"""Per-network buffer arena: preallocated scratch reused across batches.

Every layer kernel writes its intermediates — conv row columns, layer
outputs, gradient images — with ``out=`` into scratch it requests
through :meth:`~repro.nn.layers.base.Layer._buf` (or, for temporaries
that die inside the call, :meth:`~repro.nn.layers.base.Layer._tmp`).
Bound to a
:class:`BufferArena`, that request is keyed, lazily-allocated,
shape-stable storage: a layer asks for ``(owner, name, shape, dtype)``
and gets the *same* ndarray back on every batch, so after the first
epoch and validation the training loop reaches a steady state with
zero new large allocations.  :class:`~repro.nn.trainer.Trainer` binds
one to the network it trains.

Design rules (see DESIGN "The buffer arena"):

* **Keying** — a request is keyed by ``(owner, name, shape, dtype)``,
  but storage is owned per *kind* ``(owner, name, shape[1:], dtype)``:
  one block, sized by the largest leading extent requested so far.  A
  smaller request gets the leading view ``block[:n]`` — C-contiguous,
  so BLAS and ufuncs take the same path — and a larger one allocates
  the new block and re-points every smaller key of the kind to a view
  of it.  So a ragged last batch and the validation forward (a second
  batch size) borrow the training buffers instead of pinning their own
  copies, and :attr:`nbytes` counts each owned block once.
* **Ownership** — every layer instance binds with a unique owner string
  (the network wires ``"<layer-idx>"``, composite layers extend it with
  sublayer paths), so two layers can never alias each other's scratch.
* **Lifetime** — four classes.  A bound layer's *output* (and the
  gradient it returns) is valid until that layer's next ``forward``
  (``backward``), whatever that call's batch size; what it *caches for
  backward* until the matching backward of the same batch; both are
  owner-keyed.  An eval forward between a training forward and its
  backward already makes that backward raise, so validation's borrowed
  views never clobber a live backward cache.  A *call-local*
  temporary (:meth:`BufferArena.scratch`) is keyed by ``(name, shape,
  dtype)`` alone and shared by every layer of the network, so it is
  never returned, cached, or live across another layer's call — the
  nine same-shaped convs of a decoded network reuse one cache-warm
  block instead of pinning nine cold ones.  A *node-internal
  transient* is a result its composite binder routes into that shared
  scratch (``Layer.bind_arena(..., transients=)``): a phase node's conv
  and batch-norm outputs and the gradients its conv, batch-norm and
  ReLU return.  Each is read once, by the next layer of the node, and
  the phase alternates them between two blocks per shape so that no
  layer writes what it reads; the eval-forward rule above is unchanged
  (40.3 → 27.9 MiB on ``real_serial`` seed 21's largest network).  An
  unbound layer runs the same kernels on fresh arrays and so returns
  by value.

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
        # kind (owner, name, shape[1:], dtype) -> the one owned block
        self._blocks: dict[tuple, np.ndarray] = {}
        # kind -> the keys lent out of its block, which a larger block re-points
        self._lent: dict[tuple, list[tuple]] = {}
        # (owner, name, shape, dtype) -> the block or its leading view
        self._buffers: dict[tuple, np.ndarray] = {}

    def buffer(self, owner: str, name: str, shape: tuple, dtype=None) -> np.ndarray:
        """The pinned buffer for ``(owner, name, shape, dtype)``.

        The leading view ``block[:shape[0]]`` of the kind's one block,
        which is sized by the largest leading extent requested so far.
        A larger request allocates the new block with ``np.empty``
        (callers that need zeros zero it explicitly — most GEMM/gather
        consumers overwrite every element anyway) and re-points every
        smaller key of the kind to a view of it; otherwise the same
        array is returned for a key forever after.
        """
        dtype = np.dtype(self.dtype if dtype is None else dtype)
        key = (owner, name, tuple(shape), dtype.str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._lend(key)
        return buf

    def _lend(self, key: tuple) -> np.ndarray:
        """Map ``key`` onto its kind's block, growing the block if needed."""
        kind = _kind(key)
        block = self._blocks.get(kind)
        lent = self._lent.setdefault(kind, [])
        if block is None or block.shape[:1] < key[2][:1]:  # larger leading extent
            block = self._blocks[kind] = np.empty(key[2], dtype=key[3])
            for other in lent:
                self._buffers[other] = block[: other[2][0]]
        lent.append(key)
        buf = self._buffers[key] = block if block.shape == key[2] else block[: key[2][0]]
        return buf

    def scratch(self, name: str, shape: tuple, dtype=None) -> np.ndarray:
        """The shared call-local buffer for ``(name, shape, dtype)``.

        No owner in the key: every layer asking for the same name, shape
        and dtype gets the same array (and one asking for another
        leading extent a view of the same block), so it must be dead
        before the requesting ``forward``/``backward`` returns.  (Stored
        under the empty owner, which ``Layer.bind_arena`` never hands to
        a layer.)
        """
        return self.buffer("", name, shape, dtype)

    @property
    def nbytes(self) -> int:
        """Total bytes owned — the per-evaluation peak-scratch figure.

        Each kind's block counts once; the views lent out of it are free.
        """
        return sum(block.nbytes for block in self._blocks.values())

    @property
    def n_buffers(self) -> int:
        """Owned blocks, one per kind."""
        return len(self._blocks)

    def clear(self) -> None:
        """Drop every buffer (the next request reallocates)."""
        self._blocks.clear()
        self._lent.clear()
        self._buffers.clear()

    def __repr__(self) -> str:
        return (
            f"BufferArena(dtype={np.dtype(self.dtype).name}, "
            f"buffers={self.n_buffers}, nbytes={self.nbytes})"
        )


def _kind(key: tuple) -> tuple:
    """``(owner, name, shape[1:], dtype)``: the keys that share one block.

    A 0-d shape is a kind of its own (``None`` never equals a tuple).
    """
    owner, name, shape, dtype = key
    return owner, name, shape[1:] if shape else None, dtype
