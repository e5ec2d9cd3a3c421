"""Duplicate-architecture evaluation memoization.

NSGA-II's crossover and mutation routinely regenerate genomes that were
already evaluated — either bit-identical or isomorphic (same phase DAG
under node relabeling).  Every evaluation is keyed by the canonical
genome (see :mod:`repro.nas.evaluation`), and re-training such a
candidate buys nothing.
:class:`MemoizingStream` sits between the search and the evaluation
backend on the :class:`~repro.nas.search.EvalStream` seam and reuses the
recorded outcome instead.

Invariants (also recorded in DESIGN §9):

* one cache serves one run, whose dataset, dtype, engine, sanitizer and
  training settings are fixed, so :func:`evaluation_key` — the
  canonical genome key and the epoch budget — is all that can tell two
  of its evaluations apart; a zero-budget skip is a prediction, not a
  measurement, and has no key;
* quarantined, faulted, or retried evaluations are never cached (a hit
  must reproduce a clean attempt-0 evaluation exactly); keys are taken
  at submit and at resume priming, both at attempt 0;
* cache hits are first-class lineage events: the individual (and its
  :class:`~repro.lineage.records.ModelRecord`) carries ``cache_hit``
  and the source model id, settles the source's frozen
  :class:`~repro.core.plugin.TrainingResult` (the same object, shared
  by every hit), and its ``trace`` is a copy of the source's per-epoch
  measurements, so record trails stay populated;
* hit or miss is decided in one place, :meth:`MemoizingStream.submit`
  and the follower release it triggers, from submission order alone —
  never from worker timing — so every backend and worker count produces
  the same record trails and the same :meth:`EvaluationCache.stats`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.plugin import TrainingResult
from repro.nas.evaluation import effective_budget
from repro.nas.population import Individual
from repro.utils.logging import get_logger

__all__ = ["CacheEntry", "EvaluationCache", "MemoizingStream", "evaluation_key"]

_LOG = get_logger("nas.evalcache")


def evaluation_key(individual: Individual, max_epochs: int) -> tuple | None:
    """What identifies an evaluation within one run, or ``None`` when
    nothing is measured (a zero-budget skip)."""
    budget = effective_budget(individual, max_epochs)
    if budget == 0:
        return None
    return (individual.genome.canonical_key(), budget)


@dataclass(frozen=True)
class CacheEntry:
    """One cached evaluation: the source model's id, its result (shared,
    being frozen, by every hit) and its trace stripped to
    ``(epoch, fitness, prediction, None, None)`` per epoch — a hit
    trained nothing and saved no checkpoint."""

    source_model_id: int
    result: TrainingResult
    trace: tuple


class EvaluationCache:
    """Store of evaluation outcomes keyed by :func:`evaluation_key`."""

    def __init__(self) -> None:
        self._entries: dict[tuple, CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> CacheEntry | None:
        """Look up and count the outcome."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: tuple, entry: CacheEntry) -> None:
        """Insert an entry; the first writer for a key wins."""
        self._entries.setdefault(key, entry)

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


@dataclass
class _Lead:
    """An evaluation in flight whose outcome may prime the cache."""

    key: tuple
    followers: deque = field(default_factory=deque)  # duplicates waiting on it


class MemoizingStream:
    """The evaluation cache, as a layer of the :class:`~repro.nas.search.
    EvalStream` seam.

    Wraps an inner stream (the inline loop or a worker pool) that runs
    the evaluation chain *below* the cache, so whatever that chain
    settles on is inspected *after* retries and quarantine.  A hit never
    reaches the inner stream and settles first.  A miss becomes a
    *lead*, and a clean outcome — its per-epoch trace included — primes
    the cache.

    A duplicate submitted while its lead is still uncommitted is the one
    thing the evolution modes disagree on, each pinned by recorded
    lineage:

    * ``wait_for_leader=True`` (barrier): the duplicate waits for the
      lead to settle and takes the hit; if the lead settled uncacheable
      (quarantined, faulted, retried) the first waiter is promoted to
      lead — a fault never silently propagates to other candidates —
      and the rest wait on it.  The entry is published when the lead
      settles.  The outcome depends on submission order only.
    * ``wait_for_leader=False`` (steady): the entry is published when
      the lead *commits*, a logical-clock event; a duplicate submitted
      before that finds nothing and re-evaluates for real — under
      genome-keyed RNG bit-identically, so only wall time is spent.

    Parameters
    ----------
    inner:
        The stream misses are evaluated on.
    max_epochs:
        The run's training budget, which a candidate's assigned budget
        is clamped to (:func:`evaluation_key`).
    wait_for_leader:
        The in-flight duplicate rule, see above.
    """

    def __init__(self, inner, *, max_epochs: int, wait_for_leader: bool) -> None:
        self.inner = inner
        self.max_epochs = int(max_epochs)
        self.wait_for_leader = wait_for_leader
        self.cache = EvaluationCache()
        self._ready: deque[Individual] = deque()
        self._leads: dict[int, _Lead] = {}  # by model id, until published
        self._unsettled: dict[tuple, _Lead] = {}  # by key (wait_for_leader only)
        self._n_inner = 0  # evaluations on the inner stream right now

    # -- entries ----------------------------------------------------------------

    def _apply_hit(self, individual: Individual, entry: CacheEntry) -> None:
        individual.settle(entry.result)
        individual.cache_hit = True
        individual.cache_source = entry.source_model_id
        individual.trace = list(entry.trace)
        _LOG.debug(
            "cache hit: model %d reuses model %d",
            individual.model_id,
            entry.source_model_id,
        )
        self._ready.append(individual)

    @staticmethod
    def _cacheable(individual: Individual) -> bool:
        """Only clean, first-attempt, fully-measured outcomes are cached."""
        return (
            individual.result is not None
            and not individual.quarantined
            and not individual.fault_events
            and not individual.eval_attempt
        )

    def _entry_from(self, individual: Individual) -> CacheEntry:
        source = (
            individual.cache_source
            if individual.cache_hit and individual.cache_source is not None
            else individual.model_id
        )
        trace = tuple((e, f, p, None, None) for e, f, p, *_ in individual.trace)
        return CacheEntry(source, individual.result, trace)

    def prime(self, individual: Individual) -> bool:
        """Seed the cache from an already-evaluated individual (resume path).

        Returns whether an entry was stored.  Hits restored from records
        prime with their original source id, so a resumed run attributes
        reuse exactly like the uninterrupted one.
        """
        key = evaluation_key(individual, self.max_epochs)
        if key is None or not self._cacheable(individual):
            return False
        self.cache.put(key, self._entry_from(individual))
        return True

    def _publish(self, individual: Individual) -> _Lead | None:
        """Prime the cache from a lead's outcome, once; the lead if it was one."""
        lead = self._leads.pop(individual.model_id, None)
        if lead is not None and self._cacheable(individual):
            self.cache.put(lead.key, self._entry_from(individual))
        return lead

    # -- the stream seam --------------------------------------------------------

    def _submit_inner(self, individual: Individual) -> None:
        self._n_inner += 1
        self.inner.submit(individual)

    def _lead(self, individual: Individual, key: tuple, followers=()) -> None:
        lead = _Lead(key, followers=deque(followers))
        self._leads[individual.model_id] = lead
        if self.wait_for_leader:
            self._unsettled[key] = lead
        self._submit_inner(individual)

    def _release(self, lead: _Lead) -> None:
        """A lead is off the inner stream: resolve the duplicates waiting on it."""
        del self._unsettled[lead.key]
        followers = lead.followers
        while followers:
            follower = followers.popleft()
            entry = self.cache.lookup(lead.key)
            if entry is None:
                self._lead(follower, lead.key, followers)
                return
            self._apply_hit(follower, entry)

    def submit(self, individual: Individual) -> None:
        key = evaluation_key(individual, self.max_epochs)
        if key is None:
            self._submit_inner(individual)
        elif key in self._unsettled:
            self._unsettled[key].followers.append(individual)
        elif (entry := self.cache.lookup(key)) is not None:
            self._apply_hit(individual, entry)
        else:
            self._lead(individual, key)

    def settled(self) -> Individual:
        if not self._ready and not self._n_inner:
            # a lead that raised never settles: nothing is left running,
            # so whatever still holds followers failed — promote them
            for lead in list(self._unsettled.values()):
                self._release(lead)
        if self._ready:
            return self._ready.popleft()
        if not self._n_inner:
            raise RuntimeError("no evaluations in flight")
        self._n_inner -= 1  # returned or raised, one evaluation is off the inner stream
        individual = self.inner.settled()
        if self.wait_for_leader:
            lead = self._publish(individual)
            if lead is not None:
                self._release(lead)
        return individual

    def on_commit(self, individual: Individual) -> None:
        self._publish(individual)
        self.inner.on_commit(individual)

    def finish(self):
        """Close the inner stream (returns its report, when it keeps one)."""
        return self.inner.finish()
