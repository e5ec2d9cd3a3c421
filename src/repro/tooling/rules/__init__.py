"""Rule base class and registry for the ``a4nn check`` linter.

A rule is a :class:`BaseRule` subclass with a stable ``rule_id``, a
``category``, a one-line ``description``, a location predicate, and a
``check`` that yields :class:`~repro.tooling.diagnostics.Diagnostic`
objects for one parsed module.  Rules register themselves with
:func:`register` at import time, so adding a rule is: write the class
in a module under ``tooling/rules/``, decorate it, and import the
module from :func:`load_builtin_rules`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic, Severity

__all__ = [
    "BaseRule",
    "register",
    "all_rules",
    "rule_ids",
    "load_builtin_rules",
    "markdown_catalog",
    "inject_catalog",
    "CATALOG_BEGIN",
    "CATALOG_END",
]


class BaseRule:
    """What every rule is: applies everywhere, error severity, ``diag`` helper.

    Rules see one module at a time and nothing else.  ``doc`` is the
    README catalog prose — the rule table in README.md is generated from
    it (``--list-rules --format md``).
    """

    rule_id: str = ""
    category: str = ""
    description: str = ""
    doc: str = ""
    severity: Severity = Severity.ERROR

    def applies_to(self, module: ModuleContext) -> bool:
        return True

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diag(
        self, module: ModuleContext, node: ast.AST | None, message: str
    ) -> Diagnostic:
        """Build a diagnostic for ``node`` (or the file head when ``None``)."""
        return Diagnostic(
            path=module.display_path,
            line=getattr(node, "lineno", 1) if node is not None else 1,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: dict[str, BaseRule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and index the rule by its id."""
    rule = rule_cls()
    if not rule.rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no rule_id")
    existing = _REGISTRY.get(rule.rule_id)
    if existing is not None and type(existing) is not rule_cls:
        raise ValueError(
            f"duplicate rule id {rule.rule_id!r}: "
            f"{type(existing).__name__} vs {rule_cls.__name__}"
        )
    _REGISTRY[rule.rule_id] = rule  # a4nn: noqa(CONC001) -- import-time registry: a rule registered at run time in the parent does not reach spawned workers; the linter runs in one process
    return rule_cls


def all_rules() -> list[BaseRule]:
    """Every registered rule, ordered by id."""
    load_builtin_rules()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    load_builtin_rules()
    return sorted(_REGISTRY)


def load_builtin_rules() -> None:
    """Import the built-in rule modules (idempotent)."""
    from repro.tooling.rules import (  # noqa: F401
        concurrency,
        determinism,
        safety,
        suppressions,
    )


def markdown_catalog() -> str:
    """The README rule-catalog table, generated from the registry.

    README.md embeds this output verbatim between the
    ``RULE CATALOG`` markers; ``tests/test_tooling_linter.py`` asserts
    the two stay in sync, so a new rule pack cannot drift from docs.
    """
    lines = ["| rule | category | what it enforces |", "|---|---|---|"]
    for rule in all_rules():
        prose = (rule.doc or rule.description).strip()
        lines.append(f"| `{rule.rule_id}` | {rule.category} | {prose} |")
    return "\n".join(lines)


#: Markers bounding the generated rule table in README.md.
CATALOG_BEGIN = "<!-- a4nn-rule-catalog:begin -->"
CATALOG_END = "<!-- a4nn-rule-catalog:end -->"


def inject_catalog(readme_text: str) -> str:
    """Replace the marked README region with the generated catalog.

    Raises :class:`ValueError` when the markers are missing or out of
    order — a silent no-op would let the docs drift undetected.
    """
    begin = readme_text.find(CATALOG_BEGIN)
    end = readme_text.find(CATALOG_END)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError("README is missing the a4nn-rule-catalog markers")
    head = readme_text[: begin + len(CATALOG_BEGIN)]
    tail = readme_text[end:]
    return f"{head}\n{markdown_catalog()}\n{tail}"


def walk_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Every function/async-function definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for other shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None

