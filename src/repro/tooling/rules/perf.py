"""Performance rules: constructs that silently force float64 in hot paths.

The evaluation fast path runs every layer, loss, and optimizer in the
configured compute dtype (float32 by default for new runs — see
:mod:`repro.nn.dtype`).  A single ``dtype=float`` default or bare
``astype(float)`` in a hot-path module upcasts the whole pipeline back
to float64 and quietly throws the speedup away, which is exactly how
the pre-fast-path losses module defeated float32 training:

* ``PERF001`` — inside ``nn/`` hot-path code, ``dtype=float``,
  ``np.float64``/``numpy.float64``, and bare ``astype(float)`` /
  ``astype("float64")`` all force float64 regardless of the configured
  policy.  Derive the dtype from the data (``targets = np.asarray(t,
  dtype=predictions.dtype)``) or thread it through
  :func:`repro.nn.dtype.resolve_dtype`.  ``nn/dtype.py`` itself is
  exempt — the float64 *default* has to be named somewhere, and that
  module is its sanctioned home.

* ``PERF002`` — inside the worker-entry modules of the process backend
  (``scheduler/procpool.py``, ``xfel/shm.py``), constructs that cannot
  cross a ``spawn`` pickle boundary or that smuggle per-process state:
  lambdas (unpicklable — every callable shipped to a worker must be a
  module-level function), closures returned from functions (same
  problem, harder to spot), and module-level RNG state (each spawned
  worker re-imports the module and gets its *own* generator, silently
  desynchronizing workers from the serial path — derive generators from
  :class:`repro.utils.rng.RngStream` per evaluation instead).

* ``PERF003`` — inside the training hot loop (``nn/layers/``,
  ``nn/trainer.py``, ``nn/optimizers.py``, ``nas/decoder.py``),
  allocating numpy constructors (``np.zeros``/``np.empty``/
  ``np.concatenate``/...) and ``.copy()``/``.astype()`` calls inside
  ``for``/``while`` loop bodies.  A loop-carried allocation runs once
  per batch or per node for every epoch of every candidate network —
  the buffer arena (:mod:`repro.nn.arena`) exists precisely so this
  scratch is requested once (``Layer._buf``) and reused.  One-time lazy
  initialisation of persistent state (optimizer moments) is the only
  thing that justifies an ``a4nn: noqa(PERF003)``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic
from repro.tooling.rules import BaseRule, dotted_name, register, walk_functions

__all__ = ["Float64ForcingRule", "PicklingHostileRule", "LoopAllocationRule"]

_WIDE_ATTRS = {"np.float64", "numpy.float64", "np.double", "numpy.double"}
_WIDE_LITERALS = {"float64", "double"}


def _forces_float64(arg: ast.AST) -> str | None:
    """Human-readable description when ``arg`` pins float64, else ``None``."""
    if isinstance(arg, ast.Name) and arg.id == "float":
        return "builtin float"
    if isinstance(arg, ast.Attribute) and dotted_name(arg) in _WIDE_ATTRS:
        return dotted_name(arg)
    if (
        isinstance(arg, ast.Constant)
        and isinstance(arg.value, str)
        and arg.value in _WIDE_LITERALS
    ):
        return repr(arg.value)
    return None


@register
class Float64ForcingRule(BaseRule):
    rule_id = "PERF001"
    category = "performance"
    doc = (
        "no float64-forcing constructs (`dtype=float`, `np.float64`, `astype(float)`) "
        "inside `nn/` outside `nn/dtype.py` — a single upcast silently defeats the "
        "float32 fast path"
    )
    description = "construct that forces float64 in nn/ hot-path code, defeating the dtype policy"

    def applies_to(self, module: ModuleContext) -> bool:
        return module.in_location("nn/") and not module.in_location("nn/dtype.py")

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                chain = dotted_name(node)
                if chain in _WIDE_ATTRS:
                    yield self.diag(
                        module,
                        node,
                        f"{chain} pins float64 regardless of the configured "
                        "compute dtype; derive the dtype from the data or from "
                        "repro.nn.dtype.resolve_dtype",
                    )
            elif isinstance(node, ast.Call):
                chain = dotted_name(node.func) or ""
                is_astype = chain.endswith(".astype")
                candidates = [
                    kw.value for kw in node.keywords if kw.arg == "dtype"
                ]
                if is_astype:
                    candidates.extend(node.args)
                for arg in candidates:
                    what = _forces_float64(arg)
                    # np.float64 attributes are already reported above
                    if what is not None and not isinstance(arg, ast.Attribute):
                        site = f"astype({what})" if is_astype else f"dtype={what}"
                        yield self.diag(
                            module,
                            arg,
                            f"{site} silently upcasts the pipeline to "
                            "float64, defeating the float32 fast path; derive "
                            "the dtype from the data or from "
                            "repro.nn.dtype.resolve_dtype",
                        )


#: Calls whose result, bound at module level, is per-process RNG state.
_RNG_FACTORIES = {
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.RandomState",
    "numpy.random.RandomState",
    "np.random.seed",
    "numpy.random.seed",
    "random.Random",
    "random.seed",
}

#: Modules that define what worker processes execute or attach to.
_WORKER_ENTRY_FILES = ("scheduler/procpool.py", "xfel/shm.py")


@register
class PicklingHostileRule(BaseRule):
    rule_id = "PERF002"
    category = "performance"
    doc = (
        "no pickling-hostile constructs (lambdas, returned closures, module-level "
        "RNG state) in the process-backend worker-entry modules "
        "(`scheduler/procpool.py`, `xfel/shm.py`) — everything shipped to a spawned "
        "worker must cross the pickle boundary and re-derive RNG state"
    )
    description = (
        "pickling-hostile construct (lambda, returned closure, module-level "
        "RNG state) in a process-backend worker-entry module"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return module.in_location(*_WORKER_ENTRY_FILES)

    def _module_level_rng(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for stmt in module.tree.body:
            targets: list[ast.AST]
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            elif isinstance(stmt, ast.Expr):
                # bare np.random.seed(...) at import time
                value, targets = stmt.value, []
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            chain = dotted_name(value.func)
            if chain in _RNG_FACTORIES:
                yield self.diag(
                    module,
                    value,
                    f"module-level {chain}(...) gives every spawned worker its "
                    "own generator state, silently desynchronizing workers "
                    "from the serial path; derive generators from an "
                    "RngStream per evaluation instead",
                )

    def _returned_closures(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for func in walk_functions(module.tree):
            nested = {
                child.name
                for stmt in func.body
                for child in ast.walk(stmt)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not func
            }
            if not nested:
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in nested
                ):
                    yield self.diag(
                        module,
                        node,
                        f"returning nested function {node.value.id!r} creates "
                        "a closure that cannot cross the spawn pickle "
                        "boundary; promote it to a module-level function",
                    )

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Lambda):
                yield self.diag(
                    module,
                    node,
                    "lambdas are unpicklable and cannot be shipped to a "
                    "spawned worker; use a module-level function",
                )
        yield from self._module_level_rng(module)
        yield from self._returned_closures(module)


#: Numpy constructors whose result is a fresh heap array every call.
_ALLOCATORS = {
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "arange",
    "ascontiguousarray",
    "concatenate",
    "stack",
    "tile",
    "repeat",
}

#: Array methods that allocate a fresh copy of their receiver.
_COPYING_METHODS = {"copy", "astype"}

#: The modules whose loops run once per batch/node/epoch per candidate.
_HOT_LOOP_LOCATIONS = (
    "nn/layers/",
    "nn/trainer.py",
    "nn/optimizers.py",
    "nas/decoder.py",
)


def _allocating_call(node: ast.Call) -> str | None:
    """Describe ``node`` when it allocates a fresh array, else ``None``."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    # method calls match on the attribute alone so subscripted/chained
    # receivers (grads[i].copy()) are caught too
    if func.attr in _COPYING_METHODS:
        return f".{func.attr}(...)"
    chain = dotted_name(func)
    if chain is not None:
        head, _, tail = chain.rpartition(".")
        if head in ("np", "numpy") and tail in _ALLOCATORS:
            return f"{chain}(...)"
    return None


@register
class LoopAllocationRule(BaseRule):
    rule_id = "PERF003"
    category = "performance"
    doc = (
        "no allocating numpy constructors (`np.zeros`, `np.empty`, `np.concatenate`, "
        "...) or `.copy()`/`.astype()` calls inside `for`/`while` loop bodies of the "
        "training hot loop (`nn/layers/`, `nn/trainer.py`, `nn/optimizers.py`, "
        "`nas/decoder.py`) — request scratch through `Layer._buf` (pinned once the "
        "layer is bound to the buffer arena) and reuse it; only one-time lazy "
        "initialisation of persistent state justifies `a4nn: noqa(PERF003)`"
    )
    description = (
        "loop-carried array allocation in training hot-loop code; use a "
        "pinned arena buffer instead"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return module.in_location(*_HOT_LOOP_LOCATIONS)

    def _walk_pruned(self, node: ast.AST) -> Iterable[ast.AST]:
        """Walk ``node`` without descending into nested loops or defs.

        A call inside a nested loop is reported when the *inner* loop is
        visited; descending here would report it once per enclosing
        loop.  Nested function bodies only repeat if something calls
        them in a loop, which is that call site's finding.
        """
        if isinstance(
            node, (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return
        yield node
        for child in ast.iter_child_nodes(node):
            yield from self._walk_pruned(child)

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            # only the loop *body* repeats; the iterable expression and
            # the while condition run per iteration too, but allocations
            # there are idiomatic (e.g. iterating over a fresh arange)
            for stmt in loop.body + loop.orelse:
                for node in self._walk_pruned(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    what = _allocating_call(node)
                    if what is not None:
                        yield self.diag(
                            module,
                            node,
                            f"{what} allocates a fresh array on every loop "
                            "iteration of the training hot path; request a "
                            "pinned buffer from the bound BufferArena "
                            "(Layer._buf) once and reuse it",
                        )
