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
* ``DET004`` — no RNG object (seeded or not) parked on a module global
  outside ``utils/rng.py``.  Module-level generators are shared mutable
  state: import order changes draw order, spawned workers re-import and
  silently fork the stream, and two consumers perturb each other.

All three match the *canonical* name of a call — its head resolved
through the module's own imports (:meth:`ModuleContext.resolve`) — so
``from time import perf_counter``, ``import numpy.random as npr`` and
``from datetime import datetime as dt`` cannot spell their way past
them.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic
from repro.tooling.rules import BaseRule, dotted_name, register, walk_functions

__all__ = ["GlobalRngRule", "WallClockRule", "ModuleGlobalRngRule"]

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

#: Canonical call chains that produce an RNG *object* (seeded or not).
_RNG_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "random.Random",
    "random.SystemRandom",
}

#: The project's own generator factories, matched by their final name
#: however they were imported (``repro.utils`` re-exports them).
_PROJECT_RNG_FACTORIES = {"derive_rng", "fallback_rng"}


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


def _rng_factory_call(module: ModuleContext, node: ast.AST) -> str | None:
    """The factory chain when ``node`` constructs an RNG object, else ``None``."""
    chain = _canonical_call(module, node)
    if chain is None:
        return None
    if chain in _RNG_FACTORIES or chain.rsplit(".", 1)[-1] in _PROJECT_RNG_FACTORIES:
        return chain
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


def _global_stores(func: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(name, value) for assignments to ``global``-declared names in ``func``."""
    declared: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    yield target.id, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name) and node.target.id in declared:
                yield node.target.id, node.value


@register
class ModuleGlobalRngRule(BaseRule):
    rule_id = "DET004"
    category = "determinism"
    description = "RNG object stored on a module global (shared mutable stream state)"
    doc = (
        "no RNG objects (seeded or not) stored on module globals anywhere outside "
        "`utils/rng.py` — module-level generators are shared mutable state that "
        "forks silently across spawned workers and couples unrelated consumers' "
        "draw order"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.in_location("utils/rng.py")

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = stmt.value
            else:
                continue
            chain = _rng_factory_call(module, value)
            if chain is not None:
                yield self.diag(
                    module,
                    value,
                    f"module-level {chain}(...) parks generator state on the "
                    "module: every importer (and every spawned worker) shares "
                    "or silently forks the stream; derive generators per "
                    "consumer from repro.utils.rng",
                )
        for func in walk_functions(module.tree):
            for name, value in _global_stores(func):
                chain = _rng_factory_call(module, value)
                if chain is not None:
                    yield self.diag(
                        module,
                        value,
                        f"storing {chain}(...) into module global {name!r} "
                        "creates shared mutable stream state; derive "
                        "generators per consumer from repro.utils.rng",
                    )
