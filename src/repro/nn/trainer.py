"""Epoch-wise training driver implementing the Algorithm-1 model interface.

The prediction engine interacts with training strictly through the
:class:`~repro.core.plugin.TrainableModel` protocol — one ``train()``
call per epoch, ``validate()`` returning percent fitness.  This module
provides that interface for real NumPy networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.arena import BufferArena
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy_percent
from repro.nn.network import Network
from repro.nn.optimizers import Optimizer
from repro.utils.rng import fallback_rng
from repro.utils.timing import Stopwatch
from repro.utils.validation import ensure_positive

__all__ = ["Trainer", "EpochStats"]


@dataclass
class EpochStats:
    """Per-epoch record persisted by the lineage tracker."""

    epoch: int
    train_loss: float
    train_accuracy: float
    wall_seconds: float


@dataclass
class Trainer:
    """Mini-batch trainer for one network on one dataset split.

    Parameters
    ----------
    network:
        The model under training.  The trainer binds it to a fresh
        :class:`~repro.nn.arena.BufferArena`, so from here on each
        layer's output is only valid until that layer's next forward.
    x_train, y_train, x_val, y_val:
        Data splits; images are NCHW float arrays, labels integer.
    optimizer:
        Required; applies each mini-batch's update (the workflow's
        evaluator passes :class:`~repro.nn.optimizers.Adam`).
    loss:
        Defaults to softmax cross-entropy.
    batch_size:
        Mini-batch size; the last ragged batch is kept.
    rng:
        Generator for epoch shuffling (deterministic training).
    sanitizer:
        Optional :class:`~repro.tooling.sanitizer.Sanitizer` (duck-
        typed); when set, every step's loss and parameter gradients are
        asserted finite, raising ``NumericalFault`` on violation.
    write_guard:
        Optional :class:`~repro.tooling.sanitizer.WriteGuard` (duck-
        typed); attached to the network it flips borrowed inter-layer
        tensors read-only around layer calls.  The trainer only keeps
        its ``epoch`` stamp current so trips carry their position.
    """

    network: Network
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    optimizer: Optimizer
    loss: Loss | None = None
    batch_size: int = 32
    rng: np.random.Generator | None = None
    history: list = field(default_factory=list)
    sanitizer: object | None = None
    write_guard: object | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.batch_size, "batch_size")
        if len(self.x_train) != len(self.y_train):
            raise ValueError(
                f"train split mismatch: {len(self.x_train)} images, {len(self.y_train)} labels"
            )
        if len(self.x_val) != len(self.y_val):
            raise ValueError(
                f"val split mismatch: {len(self.x_val)} images, {len(self.y_val)} labels"
            )
        if len(self.x_train) == 0 or len(self.x_val) == 0:
            raise ValueError("train and validation splits must be non-empty")
        if self.loss is None:
            self.loss = SoftmaxCrossEntropy()
        if self.rng is None:
            self.rng = fallback_rng()
        self.network.bind_arena(BufferArena())

    @property
    def epoch(self) -> int:
        """Epochs completed so far."""
        return len(self.history)

    def _gather_batch(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize one shuffled mini-batch in pinned buffers (the
        ragged last batch keys its own buffer by shape)."""
        arena = self.network.arena
        xb = arena.buffer(
            "trainer", "xb", (len(batch),) + self.x_train.shape[1:], self.x_train.dtype
        )
        np.take(self.x_train, batch, axis=0, out=xb)
        yb = arena.buffer("trainer", "yb", (len(batch),), self.y_train.dtype)
        np.take(self.y_train, batch, axis=0, out=yb)
        return xb, yb  # batch buffers are consumed within the epoch step before the next gather reuses them

    def train(self) -> EpochStats:
        """Run one full training epoch (shuffle, batch, update)."""
        clock = Stopwatch().start()
        if self.sanitizer is not None:
            self.sanitizer.epoch = self.epoch + 1
        if self.write_guard is not None:
            self.write_guard.epoch = self.epoch + 1
        order = self.rng.permutation(len(self.x_train))
        losses: list[float] = []
        correct = 0
        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            x, y = self._gather_batch(batch)
            self.optimizer.zero_grad()
            logits = self.network.forward(x, training=True)
            value, grad = self.loss(logits, y)
            if self.sanitizer is not None:
                self.sanitizer.check_loss(value)
            self.network.backward(grad)
            if self.sanitizer is not None:
                self.sanitizer.check_parameter_gradients(self.network)
            self.optimizer.step()
            losses.append(value)
            correct += int(np.sum(logits.argmax(axis=1) == y))
        clock.stop()
        stats = EpochStats(
            epoch=self.epoch + 1,
            train_loss=float(np.mean(losses)),
            train_accuracy=100.0 * correct / len(order),
            wall_seconds=clock.total,
        )
        self.history.append(stats)
        return stats

    def validate(self) -> float:
        """Validation accuracy in percent — the workflow's fitness."""
        logits = self.network.predict(self.x_val, batch_size=max(self.batch_size, 64))
        return accuracy_percent(logits, self.y_val)
