"""Performance rule: constructs that silently force float64 in hot paths.

The evaluation fast path runs every layer, loss, and optimizer in the
configured compute dtype (float32 for every run — see
:mod:`repro.nn.dtype`).  A single ``dtype=float`` default or bare
``astype(float)`` in a hot-path module upcasts the whole pipeline back
to float64 and quietly throws the speedup away, which is exactly how
the pre-fast-path losses module defeated float32 training:

* ``PERF001`` — inside ``nn/`` hot-path code, ``dtype=float``,
  ``numpy.float64`` under whatever name the module imported it
  (``np.float64``, ``xp.double``, ``from numpy import float64``), and
  bare ``astype(float)`` / ``astype("float64")`` all force float64
  regardless of the configured policy.  Derive the dtype from the data
  (``targets = np.asarray(t, dtype=predictions.dtype)``) or thread it through
  :func:`repro.nn.dtype.resolve_dtype`.  ``nn/dtype.py`` itself is
  exempt — the float64 *default* has to be named somewhere, and that
  module is its sanctioned home.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic
from repro.tooling.rules import BaseRule, dotted_name, numpy_name, register

__all__ = ["Float64ForcingRule"]

_WIDE_NAMES = {"float64", "double"}


def _forces_float64(arg: ast.AST) -> str | None:
    """Description when ``arg`` pins float64 without naming NumPy, else ``None``."""
    if isinstance(arg, ast.Name) and arg.id == "float":
        return "builtin float"
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and arg.value in _WIDE_NAMES:
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
            if numpy_name(module, node) in _WIDE_NAMES:
                # wherever it stands, a dtype argument included
                yield self.diag(
                    module,
                    node,
                    f"{dotted_name(node)} pins float64 regardless of the configured "
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
                    if what is not None:
                        site = f"astype({what})" if is_astype else f"dtype={what}"
                        yield self.diag(
                            module,
                            arg,
                            f"{site} silently upcasts the pipeline to "
                            "float64, defeating the float32 fast path; derive "
                            "the dtype from the data or from "
                            "repro.nn.dtype.resolve_dtype",
                        )
