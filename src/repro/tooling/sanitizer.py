"""Runtime numerical sanitizer for training runs.

Opt-in guard rails around :class:`~repro.nn.network.Network` and
:class:`~repro.nn.trainer.Trainer`: every forward activation, backward
gradient, parameter gradient, and loss value is asserted finite, and
each layer's actual output shape is checked against its declared
``output_shape`` contract.  A violation raises a structured
:class:`NumericalFault` that the workflow orchestrator records into the
model's lineage record — the alternative is a silently corrupted
fitness history ``H``, which poisons the prediction engine's curve fit
(the failure mode both PEng4NN and Baker et al. warn about).

The hooks are duck-typed: ``nn/`` never imports this module.  A
network/trainer with ``sanitizer = None`` (the default) pays one
``is None`` check per call site and nothing else.
"""

from __future__ import annotations

import numpy as np

from repro.utils.logging import get_logger

__all__ = ["NumericalFault", "Sanitizer", "WriteGuard"]

_LOG = get_logger("tooling.sanitizer")


class NumericalFault(RuntimeError):
    """A numerical invariant was violated during training.

    Attributes
    ----------
    kind:
        One of ``nonfinite-loss``, ``nonfinite-activation``,
        ``nonfinite-gradient``, ``nonfinite-parameter-gradient``,
        ``shape-mismatch``.
    model:
        Identifier of the model under training (network name).
    epoch:
        1-based epoch in which the fault fired (``None`` outside
        training).
    layer:
        Index of the offending layer, when applicable.
    detail:
        Free-form numeric context (counts of NaN/inf, shapes, ...).
    """

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        model: str | None = None,
        epoch: int | None = None,
        layer: int | None = None,
        detail: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.model = model
        self.epoch = epoch
        self.layer = layer
        self.detail = dict(detail or {})

    def __reduce__(self):
        # exceptions pickle via their args by default, which would drop
        # the keyword attributes; the process-parallel evaluation
        # backend transports faults between worker and parent
        return (
            _rebuild_numerical_fault,
            (self.kind, str(self), self.model, self.epoch, self.layer, self.detail),
        )

    def to_dict(self) -> dict:
        """JSON-able snapshot for lineage records."""
        return {
            "kind": self.kind,
            "message": str(self),
            "model": self.model,
            "epoch": self.epoch,
            "layer": self.layer,
            "detail": self.detail,
        }


def _rebuild_numerical_fault(kind, message, model, epoch, layer, detail):
    """Unpickle helper for :class:`NumericalFault` (see its ``__reduce__``)."""
    return NumericalFault(
        kind, message, model=model, epoch=epoch, layer=layer, detail=detail
    )


def _nonfinite_detail(array: np.ndarray) -> dict:
    finite = np.isfinite(array)
    return {
        "n_nan": int(np.isnan(array).sum()),
        "n_inf": int(np.isinf(array).sum()),
        "n_total": int(array.size),
        "n_finite": int(finite.sum()),
    }


class Sanitizer:
    """Per-model numerical watchdog attached to a network and its trainer.

    Parameters
    ----------
    model:
        Name reported in faults (usually the network name).
    check_shapes:
        Also verify each layer's actual output shape against its
        declared :meth:`~repro.nn.layers.base.Layer.output_shape`.

    Notes
    -----
    The trainer advances :attr:`epoch` at the start of every epoch so
    faults carry their training position.
    """

    def __init__(self, model: str | None = None, *, check_shapes: bool = True) -> None:
        self.model = model
        self.check_shapes = bool(check_shapes)
        self.epoch: int | None = None
        self.n_checks = 0

    def watch(self, network) -> "Sanitizer":
        """Attach to a network (its forward/backward loops consult us)."""
        network.sanitizer = self
        if self.model is None:
            self.model = getattr(network, "name", None)
        return self

    # -- hook points (called by Network/Trainer when attached) -----------------

    def after_layer_forward(self, index: int, layer, x_in: np.ndarray, x_out: np.ndarray) -> None:
        """Validate one layer's forward output (finiteness + shape contract)."""
        self.n_checks += 1
        if not np.all(np.isfinite(x_out)):
            raise NumericalFault(
                "nonfinite-activation",
                f"layer {index} ({type(layer).__name__}) produced non-finite "
                f"activations at epoch {self.epoch}",
                model=self.model,
                epoch=self.epoch,
                layer=index,
                detail=_nonfinite_detail(x_out),
            )
        if self.check_shapes:
            try:
                expected = tuple(layer.output_shape(tuple(x_in.shape[1:])))
            except Exception as exc:
                # a layer without shape introspection is a lint matter, not
                # a runtime fault; keep training but leave a trace
                _LOG.debug("skipping shape check for layer %d: %s", index, exc)
                return
            actual = tuple(x_out.shape[1:])
            if expected != actual:
                raise NumericalFault(
                    "shape-mismatch",
                    f"layer {index} ({type(layer).__name__}) declared output shape "
                    f"{expected} but produced {actual}",
                    model=self.model,
                    epoch=self.epoch,
                    layer=index,
                    detail={"expected": list(expected), "actual": list(actual)},
                )

    def after_layer_backward(self, index: int, layer, grad: np.ndarray) -> None:
        """Validate one layer's input-gradient on the way down."""
        self.n_checks += 1
        if not np.all(np.isfinite(grad)):
            raise NumericalFault(
                "nonfinite-gradient",
                f"layer {index} ({type(layer).__name__}) back-propagated "
                f"non-finite gradients at epoch {self.epoch}",
                model=self.model,
                epoch=self.epoch,
                layer=index,
                detail=_nonfinite_detail(grad),
            )

    def check_loss(self, value: float) -> None:
        """Assert the scalar training loss is finite."""
        self.n_checks += 1
        if not np.isfinite(value):
            raise NumericalFault(
                "nonfinite-loss",
                f"training loss became {value!r} at epoch {self.epoch}",
                model=self.model,
                epoch=self.epoch,
                detail={"loss": repr(value)},
            )

    def check_parameter_gradients(self, network) -> None:
        """Assert every parameter gradient is finite before the update."""
        for name, param in network.parameters():
            self.n_checks += 1
            if not np.all(np.isfinite(param.grad)):
                raise NumericalFault(
                    "nonfinite-parameter-gradient",
                    f"parameter {name!r} accumulated non-finite gradients "
                    f"at epoch {self.epoch}",
                    model=self.model,
                    epoch=self.epoch,
                    detail={"parameter": name, **_nonfinite_detail(param.grad)},
                )


_GUARD_TRIP_MARKERS = ("read-only", "read only", "not writeable", "writeable")


class WriteGuard:
    """Runtime aliasing validator: borrowed tensors become read-only.

    Nothing static proves that arena scratch and ``out=`` targets stay
    disjoint from live read operands, so this guard checks it at
    runtime: around every layer call the borrowed inter-layer tensor is
    flipped read-only (``arr.flags.writeable = False``), so a layer that
    writes its *input* raises immediately instead of silently corrupting
    a neighbour's buffer.  The flip touches only flags — never values —
    so a guarded run that does not trip is byte-identical to an
    unguarded one.

    Trips surface as :class:`NumericalFault` (``kind="guarded-write"``)
    and flow through the same fault → lineage path as numerical faults.

    Scope: the guard sits at the :class:`~repro.nn.network.Network`
    layer seam; writes *inside* a composite layer (e.g. between a
    phase block's internal nodes) are not covered — the bound ≡ unbound
    bitwise tests are what catch those (DESIGN §12).
    """

    def __init__(self, model: str | None = None) -> None:
        self.model = model
        self.epoch: int | None = None
        self.n_guarded = 0

    def watch(self, network) -> "WriteGuard":
        """Attach to a network (its forward/backward loops consult us)."""
        network.write_guard = self
        if self.model is None:
            self.model = getattr(network, "name", None)
        return self

    # -- hook points (called by Network when attached) -------------------------

    def guard_forward(self, index: int, layer, x: np.ndarray, *, training: bool):
        """Run ``layer.forward`` with the borrowed input read-only."""
        return self._guarded(index, layer, "forward", x, lambda: layer.forward(x, training=training))

    def guard_backward(self, index: int, layer, grad: np.ndarray):
        """Run ``layer.backward`` with the borrowed gradient read-only."""
        return self._guarded(index, layer, "backward", grad, lambda: layer.backward(grad))

    def _guarded(self, index: int, layer, phase: str, arr: np.ndarray, call):
        restore = bool(arr.flags.writeable)
        if restore:
            arr.flags.writeable = False
        self.n_guarded += 1
        try:
            return call()
        except ValueError as exc:
            text = str(exc)
            if any(marker in text for marker in _GUARD_TRIP_MARKERS):
                raise NumericalFault(
                    "guarded-write",
                    f"layer {index} ({type(layer).__name__}) wrote to its "
                    f"borrowed {phase} input at epoch {self.epoch}; the "
                    "tensor belongs to the upstream layer and reuse would "
                    "clobber it",
                    model=self.model,
                    epoch=self.epoch,
                    layer=index,
                    detail={"phase": phase, "shape": list(arr.shape)},
                ) from exc
            raise
        finally:
            if restore:
                try:
                    arr.flags.writeable = True
                except ValueError:  # view whose base went read-only meanwhile
                    pass
