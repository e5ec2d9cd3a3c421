"""Concurrency rule: module state must not be written at run time.

The process backend's contract (DESIGN §10) is that a worker builds its
entire evaluator chain from the run's picklable ``WorkflowConfig`` (the
orchestrator's own ``evaluation_chain``) and never shares Python state
with the parent.

``CONC001`` — a function-body write to module-level state (a
``global`` rebind, or a mutation of a module-level container) anywhere
in the package.  Each spawned worker re-imports the module, so such a
write silently diverges per process — the parent never sees it, and
replay cannot reproduce it.  The tree has no legitimate run-time use
for module state; the import-time registries carry a justified
suppression saying that registration after start-up does not reach
spawned workers.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic
from repro.tooling.rules import BaseRule, dotted_name, register, walk_functions

__all__ = ["ModuleStateWriteRule"]

#: Module-level constructors whose result is mutable shared state.
_MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}

#: Container-mutating method names (on a module-level name).
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "remove",
    "discard",
    "clear",
    "popitem",
}

_CONTAINER_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_containers(tree: ast.Module) -> set[str]:
    """Names bound at module level to a mutable container."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        mutable = isinstance(value, _CONTAINER_LITERALS)
        if isinstance(value, ast.Call):
            chain = dotted_name(value.func)
            mutable = chain is not None and chain.split(".")[-1] in _MUTABLE_CONSTRUCTORS
        if mutable:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _module_state_writes(
    containers: set[str], func: ast.AST
) -> Iterator[tuple[ast.AST, str]]:
    """(node, description) for writes to module-level state inside ``func``."""
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    yield node, f"rebinds module global {target.id!r}"
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in containers:
                        yield node, f"writes into module-level container {name!r}"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in containers:
                        yield node, f"deletes from module-level container {name!r}"
        elif isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain is None or chain.count(".") != 1:
                continue
            head, method = chain.split(".")
            if method in _MUTATOR_METHODS and head in containers:
                yield node, f"mutates module-level container {head!r} via .{method}()"


@register
class ModuleStateWriteRule(BaseRule):
    rule_id = "CONC001"
    category = "concurrency"
    description = "function-body write to module-level mutable state"
    doc = (
        "no function-body writes to module-level state (`global` rebinds, "
        "module-container mutations) anywhere in the package — each spawned "
        "worker re-imports the module, so such state silently diverges per "
        "process and breaks replay"
    )

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        containers = _module_containers(module.tree)
        seen: set[tuple[int, int]] = set()
        for func in walk_functions(module.tree):
            for node, what in _module_state_writes(containers, func):
                # a nested def is walked with its parent and on its own
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield self.diag(
                    module,
                    node,
                    f"{func.name}() {what}; each spawned worker re-imports the "
                    "module, so this state diverges per process — pass state "
                    "through the WorkflowConfig or return it to the parent",
                )
