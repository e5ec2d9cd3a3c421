"""Lineage-completeness rule: writers must match the record schema.

``LIN001`` — the record dataclasses in ``lineage/records.py`` are the
commons schema; :mod:`repro.lineage.tracker` and the workflow
orchestrator write into them.  A writer that sets an attribute or
passes a constructor keyword the schema does not declare produces
records that *look* published but silently drop data (``asdict`` only
serializes declared fields), so replays verify against an incomplete
trail.  This rule parses the schema and checks every record
construction and attribute write in the writer modules against it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic
from repro.tooling.rules import BaseRule, register

__all__ = ["RecordSchemaRule", "record_schemas"]

_WRITER_SCOPES = ("lineage/tracker.py", "workflow/orchestrator.py")
_SCHEMA_MODULE = "lineage/records.py"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        name = None
        if isinstance(deco, ast.Name):
            name = deco.id
        elif isinstance(deco, ast.Attribute):
            name = deco.attr
        elif isinstance(deco, ast.Call):
            func = deco.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dataclass":
            return True
    return False


def record_schemas(records_tree: ast.Module) -> dict[str, set[str]]:
    """``{class name: declared field names}`` for every record dataclass."""
    schemas: dict[str, set[str]] = {}
    for node in records_tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
            schemas[node.name] = fields
    return schemas


def _annotation_name(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("\"'")
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class RecordSchemaRule(BaseRule):
    rule_id = "LIN001"
    category = "lineage"
    doc = (
        "code writing lineage records only uses fields declared in "
        "`lineage/records.py` — `asdict` drops unknown attributes silently"
    )
    description = (
        "record writer out of sync with the lineage/records.py schema "
        "(unknown constructor keyword or attribute write would be dropped by asdict)"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return module.in_location(*_WRITER_SCOPES)

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        project = module.project
        records_mod = project.find(_SCHEMA_MODULE) if project else None
        if records_mod is None:
            return
        schemas = record_schemas(records_mod.tree)
        if not schemas:
            yield self.diag(
                module, None, f"{_SCHEMA_MODULE} declares no record dataclasses"
            )
            return

        # functions (in any scanned module of this project) returning a record
        returns_record: dict[str, str] = {}
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.FunctionDef):
                    name = _annotation_name(node.returns)
                    if name in schemas:
                        returns_record[node.name] = name

        for func in ast.walk(module.tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            yield from self._check_function(module, func, schemas, returns_record)

    def _check_function(
        self,
        module: ModuleContext,
        func: ast.FunctionDef,
        schemas: dict[str, set[str]],
        returns_record: dict[str, str],
    ) -> Iterable[Diagnostic]:
        var_types: dict[str, str] = {}
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            cls_name = None
            if isinstance(call.func, ast.Name) and call.func.id in schemas:
                cls_name = call.func.id
            elif isinstance(call.func, ast.Attribute) and call.func.attr in returns_record:
                cls_name = returns_record[call.func.attr]
            if cls_name is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    var_types[target.id] = cls_name

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                cls_name = (
                    node.func.id
                    if isinstance(node.func, ast.Name) and node.func.id in schemas
                    else None
                )
                if cls_name is not None:
                    for keyword in node.keywords:
                        if keyword.arg is not None and keyword.arg not in schemas[cls_name]:
                            yield self.diag(
                                module,
                                keyword.value,
                                f"{cls_name}({keyword.arg}=...) is not a declared "
                                f"schema field; it would never reach the commons",
                            )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in var_types
                    ):
                        cls_name = var_types[target.value.id]
                        if target.attr not in schemas[cls_name]:
                            yield self.diag(
                                module,
                                target,
                                f"write to {target.value.id}.{target.attr} has no "
                                f"matching field on {cls_name}; asdict() drops it, "
                                "so the record trail silently loses this data",
                            )
