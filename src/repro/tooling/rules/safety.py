"""Numerical-safety rules: swallowed errors, unbounded retries, dtype mixing.

A corrupted learning curve poisons the fitness estimate silently, so
numeric code must fail loudly or guard explicitly:

* ``NUM001`` — a bare ``except:`` / ``except Exception`` whose body
  neither re-raises nor logs swallows the very faults the prediction
  engine needs to see.  Narrow the type, re-raise, log — or suppress
  with a justified ``# a4nn: noqa(NUM001) -- reason``.
* ``NUM003`` — compute precision in ``nn/`` is a *policy*, selected
  once through :mod:`repro.nn.dtype` and threaded through layer/
  initializer ``dtype`` parameters.  Hard-coding ``np.float32`` /
  ``float16`` at a call site silently mixes precision and changes
  training results between code paths; only the policy module may name
  narrow dtypes.  The NumPy name is resolved through the module's
  imports, so ``xp.float32`` after ``import numpy as xp`` and ``float32``
  after ``from numpy import float32`` are the same reference.
* ``NUM004`` — a ``while True`` loop that swallows exceptions and loops
  again is an unbounded retry: on a persistent fault it spins forever
  (the hang the fault policy's timeout exists to catch).  Retry logic
  belongs in the fault-policy seam (``scheduler/faults.py``), which
  bounds attempts and backs off; that module is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic
from repro.tooling.rules import BaseRule, dotted_name, numpy_name, register

__all__ = ["SwallowedExceptRule", "NarrowDtypeRule", "UnboundedRetryRule"]

_BROAD_TYPES = {"Exception", "BaseException"}
_LOG_METHODS = {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}

_NARROW_DTYPES = {"float32", "float16", "half", "single"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in types:
        name = t.id if isinstance(t, ast.Name) else (t.attr if isinstance(t, ast.Attribute) else "")
        if name in _BROAD_TYPES:
            return True
    return False


def _handles_visibly(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises or logs the error."""
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain is None:
                continue
            tail = chain.rsplit(".", 1)[-1]
            if tail in _LOG_METHODS or chain == "warnings.warn":
                return True
    return False


@register
class SwallowedExceptRule(BaseRule):
    rule_id = "NUM001"
    category = "numerical-safety"
    doc = (
        "broad `except:` blocks in all code must re-raise or log — silent "
        "swallowing corrupts fitness histories invisibly"
    )
    description = "broad except that neither re-raises nor logs swallows faults silently"

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node) and not _handles_visibly(node):
                caught = "bare except" if node.type is None else "except Exception"
                yield self.diag(
                    module,
                    node,
                    f"{caught} swallows errors without re-raise or logging; "
                    "narrow the type, log, or justify with a4nn: noqa(NUM001)",
                )


def _constant_true(test: ast.AST) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _handler_escapes(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body exits the loop (raise/return/break)."""
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, (ast.Raise, ast.Return, ast.Break)):
            return True
    return False


@register
class UnboundedRetryRule(BaseRule):
    rule_id = "NUM004"
    category = "numerical-safety"
    doc = (
        "no unbounded retry loops (`while True` swallowing exceptions) outside "
        "`scheduler/faults.py` — retries are bounded by `FaultPolicy`"
    )
    description = "unbounded retry loop (while True swallowing exceptions) outside the fault-policy seam"

    def applies_to(self, module: ModuleContext) -> bool:
        # the fault-policy seam is where retry logic belongs (attempts
        # there are bounded by FaultPolicy.max_retries)
        return not module.in_location("scheduler/faults.py")

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.While) and _constant_true(node.test)):
                continue
            body = ast.Module(body=node.body, type_ignores=[])
            if any(isinstance(n, ast.Break) for n in ast.walk(body)):
                continue  # the loop has a success exit outside the try
            retrying = [
                handler
                for n in ast.walk(body)
                if isinstance(n, ast.Try)
                for handler in n.handlers
                if not _handler_escapes(handler)
            ]
            for handler in retrying:
                yield self.diag(
                    module,
                    handler,
                    "unbounded retry: this while-True loop swallows the "
                    "exception and tries again forever; bound the attempts "
                    "with backoff or route through scheduler.faults.FaultPolicy",
                )


@register
class NarrowDtypeRule(BaseRule):
    rule_id = "NUM003"
    category = "numerical-safety"
    doc = (
        "no hardcoded narrow dtype names (`float32`/`float16`) inside `nn/` outside "
        "`nn/dtype.py` — the compute dtype is threaded through `resolve_dtype`, "
        "never baked into a layer"
    )
    description = "hard-coded narrow float dtype in nn/ outside the dtype policy module"

    def applies_to(self, module: ModuleContext) -> bool:
        # nn/dtype.py is the sanctioned home for narrow-dtype names:
        # everything else must take dtype as a parameter and resolve it
        # through the policy (repro.nn.dtype.resolve_dtype)
        return module.in_location("nn/") and not module.in_location("nn/dtype.py")

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if numpy_name(module, node) in _NARROW_DTYPES:
                yield self.diag(
                    module,
                    node,
                    f"{dotted_name(node)} hard-codes a narrow dtype; thread the "
                    "compute dtype through repro.nn.dtype.resolve_dtype instead",
                )
            elif isinstance(node, ast.Call):
                chain = dotted_name(node.func) or ""
                is_dtype_site = chain.endswith(".astype")
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords if kw.arg == "dtype"
                ]:
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value in _NARROW_DTYPES
                        and (is_dtype_site or any(kw.arg == "dtype" for kw in node.keywords))
                    ):
                        yield self.diag(
                            module,
                            arg,
                            f"dtype {arg.value!r} hard-codes a narrow dtype; thread "
                            "the compute dtype through repro.nn.dtype.resolve_dtype "
                            "instead",
                        )
