"""Fault-tolerant candidate evaluation: retry, timeout, quarantine.

The paper's workflow implicitly assumes every candidate network trains
to a usable fitness.  Real runs do not cooperate: training crashes,
diverges into NaN (the sanitizer's :class:`~repro.tooling.sanitizer.
NumericalFault`), or hangs.  Without a policy, one bad genome aborts a
multi-generation search.  PEng4NN and Baker et al. treat degenerate
learning curves as a normal outcome to route around; this module gives
the A4NN stack the same stance:

* :class:`FaultPolicy` — two settings: how many times a crashed or
  timed-out attempt is retried (at once, on re-seeded RNG children),
  and a per-attempt timeout that only the process backend enforces (it
  kills the worker).  A numerical fault always quarantines.  Its
  :meth:`~FaultPolicy.route` is the one place a failed attempt is
  recorded on the individual; a quarantined individual receives the
  penalized objectives (:data:`QUARANTINE_FITNESS`,
  :data:`QUARANTINE_FLOPS`), so NSGA-II environmental selection
  discards it naturally instead of the search dying.  The stream that
  ran the attempt calls it — :class:`~repro.nas.search.InlineStream`
  or :class:`~repro.scheduler.procpool.ProcessWorkerPool` — and puts a
  retry at the head of its queue.
* :class:`FaultInjectionConfig` / :class:`FaultInjectingEvaluator` — a
  deterministic fault-injection harness (crash, hang-past-timeout, and
  NaN-loss modes, seeded from the run's RNG stream) used by the tier-1
  fault suite to prove searches survive injected faults end-to-end.

Every fault, retry, and quarantine decision is recorded as a
:class:`FaultEvent` on the individual, where the lineage tracker reads
it when the model commits.

Determinism notes: injection decisions are drawn from
``stream.generator("inject", model_id, attempt)``, and retried attempts
re-derive their training RNG children from ``("retry", attempt)`` salts
(attempt 0 uses the historical stream names, so fault-free runs are
byte-identical to pre-fault-policy runs).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.nas.evaluation import evaluate_many, outcome_of
from repro.nas.population import Individual
from repro.tooling.sanitizer import NumericalFault
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.validation import ValidationError

__all__ = [
    "QUARANTINE_FITNESS",
    "QUARANTINE_FLOPS",
    "EvaluationTimeout",
    "InjectedFault",
    "FaultEvent",
    "FaultPolicy",
    "FaultInjectionConfig",
    "FaultInjectingEvaluator",
]

_LOG = get_logger("scheduler.faults")

#: Accuracy (percent) assigned to quarantined candidates.
QUARANTINE_FITNESS = 0.0

#: Penalized FLOPs objective for quarantined candidates: large enough to
#: be dominated by every real architecture, finite so NSGA-II's sort and
#: crowding-distance arithmetic stay well-behaved.
QUARANTINE_FLOPS = 10**15


class EvaluationTimeout(RuntimeError):
    """An evaluation attempt exceeded the policy's timeout."""


class InjectedFault(RuntimeError):
    """A deliberately injected evaluation failure (test harness).

    Attributes
    ----------
    mode:
        ``"crash"`` or ``"hang"`` (NaN injection raises
        :class:`~repro.tooling.sanitizer.NumericalFault` instead, so the
        policy's numerical-fault routing is exercised for real).
    """

    def __init__(self, mode: str, message: str) -> None:
        super().__init__(message)
        self.mode = mode

    def __reduce__(self):
        # exceptions pickle via their args by default, which would drop
        # ``mode``; the process backend transports these across workers
        return (type(self), (self.mode, str(self)))


@dataclass(frozen=True)
class FaultEvent:
    """One fault-handling decision for one evaluation attempt."""

    model_id: int
    attempt: int
    kind: str  # "crash" | "timeout" | "numerical"
    action: str  # "retry" | "quarantine"
    error: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _classify(exc: Exception) -> tuple[str, dict]:
    if isinstance(exc, EvaluationTimeout):
        return "timeout", {}
    if isinstance(exc, NumericalFault):
        return "numerical", exc.to_dict()
    return "crash", {"type": type(exc).__name__}


@dataclass(frozen=True)
class FaultPolicy:
    """How the workflow handles failing candidate evaluations.

    Attributes
    ----------
    max_retries:
        Additional attempts after a crash or timeout (0 = quarantine on
        the first fault), started at once.  Each retry re-derives the
        candidate's training RNG children with a ``("retry", attempt)``
        salt, so a crash caused by an unlucky initialization gets a
        genuinely different draw while staying fully reproducible.  A
        :class:`~repro.tooling.sanitizer.NumericalFault` is never
        retried: NaN divergence is a property of the architecture, not
        of the seed.
    timeout_seconds:
        Wall-clock budget per evaluation attempt; ``None`` disables the
        timeout.  Only the process backend enforces it: it kills the
        worker of an overdue attempt, and an attempt that reports back
        past the budget by its worker's own stopwatch counts as timed
        out too.  Timed-out attempts count as faults like any other.
    """

    max_retries: int = 2
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_seconds is not None and float(self.timeout_seconds) <= 0:
            raise ValidationError(
                f"timeout_seconds must be positive or None, got {self.timeout_seconds}"
            )

    def route(self, individual: Individual, attempt: int, exc: Exception) -> bool:
        """Record this policy's decision about failed ``attempt``.

        Appends the :class:`FaultEvent` and returns whether to retry;
        ``False`` once the individual has been quarantined.  Whichever
        stream ran the attempt asks, and gets the same answer.
        """
        kind, detail = _classify(exc)
        retry = attempt < self.max_retries and kind != "numerical"
        action = "retry" if retry else "quarantine"
        event = FaultEvent(individual.model_id, attempt, kind, action, str(exc), detail)
        individual.fault_events.append(event.to_dict())
        log = _LOG.info if retry else _LOG.warning
        log(
            "model %d attempt %d %s fault -> %s: %s",
            individual.model_id, attempt, kind, action, exc,
        )
        if not retry:
            individual.fitness = QUARANTINE_FITNESS
            individual.flops = QUARANTINE_FLOPS
            individual.result = None
            individual.quarantined = True
        return retry

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FaultInjectionConfig:
    """Deterministic fault injection for testing the tolerance layer.

    Attributes
    ----------
    rate:
        Probability an evaluation *attempt* is sabotaged, drawn from
        ``stream.generator("inject", model_id, attempt)`` — so the same
        seed always injects the same faults into the same candidates,
        and a retried attempt re-draws (it may succeed).
    modes:
        Fault modes to sample uniformly: ``"crash"`` raises immediately,
        ``"hang"`` sleeps ``hang_seconds`` then raises (a crash, or a
        timeout where the policy sets one), ``"nan"`` raises a
        sanitizer-shaped :class:`~repro.tooling.sanitizer.NumericalFault`.
    hang_seconds:
        Sleep duration of the hang mode; set it above the policy's
        ``timeout_seconds`` to exercise the timeout path (process
        backend only).
    """

    rate: float = 0.0
    modes: tuple[str, ...] = ("crash", "hang", "nan")
    hang_seconds: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.rate) <= 1.0:
            raise ValidationError(f"rate must be in [0, 1], got {self.rate}")
        unknown = set(self.modes) - {"crash", "hang", "nan"}
        if not self.modes or unknown:
            raise ValidationError(
                f"modes must be a non-empty subset of crash/hang/nan, got {self.modes}"
            )
        if float(self.hang_seconds) < 0:
            raise ValidationError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "modes": list(self.modes)}


class FaultInjectingEvaluator:
    """Evaluator wrapper that deterministically sabotages attempts.

    Injection happens *before* the inner evaluator runs, so a sabotaged
    attempt leaves nothing on the individual's trace — exactly like a
    worker process dying before useful work.

    Parameters
    ----------
    evaluator:
        The real evaluation backend.
    config:
        Injection rate, modes, and hang duration.
    rng_stream:
        Stream the injection decisions derive from (use a child of the
        run's root stream so injection is part of the reproducible run).
    """

    def __init__(
        self,
        evaluator,
        config: FaultInjectionConfig,
        rng_stream: RngStream | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.config = config
        self.rng_stream = rng_stream or RngStream(0)
        self.max_epochs = evaluator.max_epochs

    def evaluate(self, individual: Individual) -> Individual:
        return outcome_of(self.evaluate_many([individual]))

    def evaluate_many(self, individuals: list[Individual]) -> list:
        """Decide every injection first, then run the rest on the inner evaluator.

        One outcome per individual, in order: a sabotaged attempt's
        exception, or what the inner ``evaluate_many`` settled.
        """
        injected = [self._injection(individual) for individual in individuals]
        spared = [m for m, fault in zip(individuals, injected) if fault is None]
        ran = iter(evaluate_many(self.evaluator, spared))
        return [next(ran) if fault is None else fault for fault in injected]

    def _injection(self, individual: Individual) -> Exception | None:
        """The fault this attempt is sabotaged with (a hang sleeps first), or ``None``."""
        attempt = individual.eval_attempt
        rng = self.rng_stream.generator("inject", individual.model_id, attempt)
        if rng.random() >= self.config.rate:
            return None
        mode = self.config.modes[int(rng.integers(len(self.config.modes)))]
        _LOG.debug(
            "injecting %s into model %d attempt %d", mode, individual.model_id, attempt
        )
        if mode == "hang":
            time.sleep(self.config.hang_seconds)
            return InjectedFault(
                "hang",
                f"injected hang ({self.config.hang_seconds}s) in model "
                f"{individual.model_id} attempt {attempt}",
            )
        if mode == "nan":
            return NumericalFault(
                "nonfinite-loss",
                f"injected NaN loss in model {individual.model_id} attempt {attempt}",
                model=f"model-{individual.model_id}",
                epoch=1,
                detail={"injected": True},
            )
        return InjectedFault(
            "crash",
            f"injected crash in model {individual.model_id} attempt {attempt}",
        )
