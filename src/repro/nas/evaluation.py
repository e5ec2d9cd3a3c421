"""Evaluators: how the NAS measures an individual.

Two interchangeable implementations of the :class:`Evaluator` protocol:

* :class:`TrainingEvaluator` — decodes the genome and actually trains
  the NumPy network on a generated XFEL dataset (*real mode*).
* :class:`~repro.nas.surrogate.SurrogateEvaluator` — drives the same
  Algorithm-1 loop with an architecture-conditioned synthetic learning
  curve (*surrogate mode*, for paper-scale sweeps).

Both settle one frozen :class:`~repro.core.plugin.TrainingResult` on
the :class:`~repro.nas.population.Individual` and append the same
per-epoch ``trace``, so the search, scheduler, and lineage tracker
cannot tell them apart.  Both key an evaluation's RNG streams by
the genome's ``canonical_key()`` and evaluate the canonical genome, so
within one run an evaluation is a pure function of the canonical genome
and its budget: the property the evaluation cache needs to be exact.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.core.engine import PredictionEngine
from repro.core.plugin import run_training_loop
from repro.nas.decoder import DecoderConfig, decode_genome, genome_flops
from repro.nas.population import Individual
from repro.nn.flops import network_flops
from repro.nn.optimizers import Adam
from repro.nn.serialization import save_checkpoint
from repro.nn.trainer import Trainer
from repro.tooling.sanitizer import Sanitizer, WriteGuard
from repro.utils.rng import RngStream
from repro.xfel.dataset import DiffractionDataset

__all__ = [
    "Evaluator",
    "TrainingEvaluator",
    "effective_budget",
    "retry_salt",
    "evaluate_each",
    "evaluate_many",
    "outcome_of",
]


def retry_salt(individual: Individual) -> tuple:
    """RNG stream salt for the individual's current evaluation attempt.

    Empty for the first attempt (so historical runs replay
    byte-identically) and ``("retry", n)`` for the ``n``-th retry, giving
    each attempt statistically independent init/shuffle/curve draws while
    staying fully derived from the root seed.
    """
    attempt = individual.eval_attempt
    return () if not attempt else ("retry", int(attempt))


def effective_budget(individual: Individual, max_epochs: int) -> int:
    """Epochs this evaluation may actually spend.

    The full ``max_epochs`` unless the surrogate allocator assigned a
    reduced probe budget, which is clamped to ``[0, max_epochs]``.  The
    difference ``max_epochs - effective`` is accounted as
    *surrogate-skipped*, distinct from epochs the engine saves by early
    termination *within* the effective budget.
    """
    budget = individual.budget_assigned
    if budget is None:
        return int(max_epochs)
    return max(0, min(int(budget), int(max_epochs)))


@runtime_checkable
class Evaluator(Protocol):
    """What the search requires of an evaluation backend.

    An evaluator may also offer ``evaluate_many(individuals)``: evaluate
    them together and return one outcome per individual, in order, the
    individual or the exception its attempt raised
    (:func:`evaluate_many`).
    """

    max_epochs: int

    def evaluate(self, individual: Individual) -> Individual:
        """Train/score ``individual`` in place and return it."""


def evaluate_each(evaluate, individuals) -> list:
    """``evaluate`` on one individual after the other.

    The outcome of each is the individual, or the exception its attempt
    raised; a ``BaseException`` (an interrupt) stops the loop.
    """
    outcomes: list = []
    for individual in individuals:
        try:
            outcomes.append(evaluate(individual))
        except Exception as exc:  # a4nn: noqa(NUM001) -- the attempt's own failure, handed back at its turn for the stream's fault policy
            outcomes.append(exc)
    return outcomes


def evaluate_many(evaluator, individuals) -> list:
    """Run ``individuals`` through ``evaluator``: one outcome per individual, in order.

    An evaluator with an ``evaluate_many`` of its own runs them together
    (the sampled evaluator in lockstep); any other evaluates one after
    the other (:func:`evaluate_each`).
    """
    many = getattr(evaluator, "evaluate_many", None)
    if many is None:
        return evaluate_each(evaluator.evaluate, individuals)
    return many(individuals)


def outcome_of(outcomes: list) -> Individual:
    """The individual of a batch of one, or its attempt's exception, raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class TrainingEvaluator:
    """Real-mode evaluation: decode and train the network (Algorithm 1).

    Parameters
    ----------
    dataset:
        The XFEL train/test split.
    engine:
        Prediction engine; ``None`` gives the standalone-NAS baseline
        (full-budget truncated training).
    max_epochs:
        Training budget per network (paper: 25).
    decoder_config:
        Channel widths / head geometry for genome decoding.
    batch_size, learning_rate:
        Training hyper-parameters shared by all candidates.
    rng_stream:
        Deterministic stream; each evaluation derives its init/shuffle
        generators from the genome's canonical key.
    checkpoint_dir:
        When given, every epoch's model state is saved under
        ``<dir>/model_<id>/epoch_<e>`` (paper §2.2.2: each model "can be
        loaded and re-evaluated from any point"), and the paths ride in
        that epoch's ``trace`` entry.
    sanitize:
        Attach a :class:`~repro.tooling.sanitizer.Sanitizer` to every
        candidate's network and trainer; numerical faults abort the
        model's training with :class:`NumericalFault`.
    sanitize_writes:
        Attach a :class:`~repro.tooling.sanitizer.WriteGuard` to every
        candidate's network: borrowed inter-layer tensors become
        read-only around layer calls, so an aliasing write raises a
        ``guarded-write`` :class:`NumericalFault` instead of silently
        corrupting a neighbouring buffer.  Flag-flips only — an
        untripped guarded run is byte-identical to an unguarded one.
    dtype:
        Compute dtype for decoded networks when no ``decoder_config`` is
        given (an explicit ``decoder_config`` carries its own dtype).
        The workflow trains in float32; float64 is for the gradient and
        dtype checks.
    """

    def __init__(
        self,
        dataset: DiffractionDataset,
        engine: PredictionEngine | None,
        *,
        max_epochs: int = 25,
        decoder_config: DecoderConfig | None = None,
        batch_size: int = 16,
        learning_rate: float = 1e-3,
        rng_stream: RngStream | None = None,
        checkpoint_dir: str | Path | None = None,
        sanitize: bool = False,
        sanitize_writes: bool = False,
        dtype=None,
    ) -> None:
        self.dataset = dataset
        self.engine = engine
        self.max_epochs = int(max_epochs)
        self.decoder_config = decoder_config or DecoderConfig(
            input_shape=dataset.input_shape, n_classes=dataset.n_classes, dtype=dtype
        )
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.rng_stream = rng_stream or RngStream(0)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.sanitize = bool(sanitize)
        self.sanitize_writes = bool(sanitize_writes)

    def flops_for(self, genome) -> int:
        """FLOPs :meth:`evaluate` will report, known before any training
        (the surrogate budget allocator's dominance test needs them)."""
        return genome_flops(genome, self.decoder_config, canonical=True)

    def evaluate_many(self, individuals: list[Individual]) -> list:
        """:meth:`evaluate` on each in turn: real training gains nothing from lockstep."""
        return evaluate_each(self.evaluate, individuals)

    def evaluate(self, individual: Individual) -> Individual:
        """Decode, train with the Algorithm-1 loop, and settle the individual."""
        budget = effective_budget(individual, self.max_epochs)
        if budget == 0:
            if not individual.evaluated:
                raise ValueError(
                    "zero-budget individual must arrive pre-filled by the "
                    f"allocator, got model {individual.model_id}"
                )
            return individual
        # retries (fault policy) re-derive the RNG children with an
        # attempt salt; attempt 0 keeps the historical stream names so
        # fault-free runs replay byte-identically
        salt = retry_salt(individual)
        ident = individual.genome.canonical_key()
        init_rng = self.rng_stream.generator("init", ident, *salt)
        shuffle_rng = self.rng_stream.generator("shuffle", ident, *salt)
        network = decode_genome(
            individual.genome,
            self.decoder_config,
            rng=init_rng,
            name=f"model-{individual.model_id}",
            canonical=True,
        )
        sanitizer = None
        if self.sanitize:
            sanitizer = Sanitizer().watch(network)
        write_guard = None
        if self.sanitize_writes:
            write_guard = WriteGuard().watch(network)
        trainer = Trainer(
            network,
            self.dataset.x_train,
            self.dataset.y_train,
            self.dataset.x_test,
            self.dataset.y_test,
            optimizer=Adam(network, self.learning_rate),
            batch_size=self.batch_size,
            rng=shuffle_rng,
            sanitizer=sanitizer,
            write_guard=write_guard,
        )

        def on_epoch(epoch: int, fitness: float, prediction: float | None) -> None:
            checkpoint = None
            if self.checkpoint_dir is not None:
                checkpoint = save_checkpoint(
                    network,
                    self.checkpoint_dir / f"model_{individual.model_id}",
                    tag=f"epoch_{epoch}",
                )
            individual.trace.append(
                (epoch, fitness, prediction, trainer.history[-1], checkpoint)
            )

        # a NumericalFault propagates with the epochs measured before it
        # on the trace; the poisoned measurement never reaches either
        result = run_training_loop(trainer, self.engine, budget, epoch_callback=on_epoch)
        individual.settle(
            replace(
                result,
                flops=network_flops(network),
                epoch_seconds=tuple(stats.wall_seconds for stats in trainer.history),
                arena_peak_bytes=network.arena.nbytes,
            )
        )
        return individual
