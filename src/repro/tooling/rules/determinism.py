"""Determinism rules: RNG and wall-clock access discipline.

A4NN's record trails are only replayable if every stochastic draw comes
from the seed-derived streams in :mod:`repro.utils.rng` and every
timestamp comes from :mod:`repro.utils.timing`.  These rules make those
invariants mechanical:

* ``DET001`` — no global-state or entropy-seeded RNG outside
  ``utils/rng.py``.  The legacy ``np.random.*`` module functions share
  hidden global state (one consumer perturbs every other), and
  ``np.random.default_rng()`` *without* a seed draws OS entropy, so the
  same run can never be replayed.  Seeded constructions such as
  ``np.random.default_rng(0)`` are allowed.
* ``DET002`` — no direct wall-clock reads outside ``utils/timing.py``.
  Clock values leaking into engine/workflow/lineage state make record
  trails differ across replays; all timing must flow through
  :class:`~repro.utils.timing.Stopwatch`.

Both match the *canonical* name of a call — its head resolved
through the module's own imports (:meth:`ModuleContext.resolve`) — so
``from time import perf_counter``, ``import numpy.random as npr`` and
``from datetime import datetime as dt`` cannot spell their way past
them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic
from repro.tooling.rules import BaseRule, dotted_name, register

__all__ = ["GlobalRngRule", "WallClockRule"]

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# numpy.random attributes that construct explicit generator machinery
# rather than touching hidden global state.
_ALLOWED_NP_RANDOM = {
    "Generator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "SeedSequence",
    "BitGenerator",
}


def _canonical_call(module: ModuleContext, node: ast.AST) -> str | None:
    """The import-resolved dotted name ``node`` calls, if it is such a call."""
    if not isinstance(node, ast.Call):
        return None
    chain = dotted_name(node.func)
    return module.resolve(chain) if chain is not None else None


def _unseeded_rng_call(module: ModuleContext, node: ast.AST) -> str | None:
    """Describe ``node`` when it is an unseeded/global-state RNG call."""
    chain = _canonical_call(module, node)
    if chain is None:
        return None
    if chain.startswith("numpy.random."):
        tail = chain.split(".", 2)[2]
        if tail in _ALLOWED_NP_RANDOM:
            return None
        if tail == "default_rng":
            if not node.args and not node.keywords:
                return f"{chain}() without a seed"
            return None
        return f"{chain}() (numpy hidden global RNG state)"
    if chain.startswith("random.") and chain.count(".") == 1:
        tail = chain.rsplit(".", 1)[1]
        if tail == "SystemRandom":
            return f"{chain}() (draws OS entropy)"
        if tail == "Random":
            if not node.args and not node.keywords:
                return f"{chain}() without a seed"
            return None
        return f"{chain}() (stdlib global RNG)"
    return None


@register
class GlobalRngRule(BaseRule):
    rule_id = "DET001"
    category = "determinism"
    doc = (
        "no global/unseeded RNG (`np.random.*`, `random.*`) outside `utils/rng.py` "
        "— seeded runs must replay bit-exactly; names are resolved through the "
        "module's imports, so `from numpy.random import rand` is the same call"
    )
    description = (
        "global-state or unseeded RNG outside utils/rng.py "
        "(np.random.* module functions, bare np.random.default_rng(), stdlib random)"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.in_location("utils/rng.py")

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            what = _unseeded_rng_call(module, node)
            if what is not None:
                yield self.diag(
                    module,
                    node,
                    f"{what}; derive a generator via repro.utils.rng instead",
                )


@register
class WallClockRule(BaseRule):
    rule_id = "DET002"
    category = "determinism"
    doc = (
        "no wall clock (`time.time`, `datetime.now`, ...) outside `utils/timing.py` "
        "— timing flows through one mockable seam; `from time import perf_counter` "
        "is resolved like `time.perf_counter`"
    )
    description = "direct wall-clock read outside utils/timing.py"

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.in_location("utils/timing.py")

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            chain = _canonical_call(module, node)
            if chain in _CLOCK_CALLS:
                yield self.diag(
                    module,
                    node,
                    f"{chain}() reads the wall clock directly; use "
                    "repro.utils.timing (Stopwatch) so replays stay deterministic",
                )

