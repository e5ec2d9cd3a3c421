"""Diagnostic model shared by the linter and its rules.

A :class:`Diagnostic` is one finding at one source location, carrying a
stable rule id (``DET001``, ``NUM001``, ...) so findings can be
suppressed and filtered.  :func:`render_text` produces the CLI's
``file:line:col`` listing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Severity", "Diagnostic", "render_text"]


class Severity(enum.Enum):
    """How bad a finding is; only errors fail the check."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, pinned to a source location.

    Attributes
    ----------
    path:
        Path of the offending file as given to the linter.
    line, col:
        1-based line and 0-based column of the finding.
    rule_id:
        Stable identifier of the rule that produced it.
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.value} {self.rule_id}: {self.message}"
        )


def render_text(diagnostics: list[Diagnostic]) -> str:
    """The default ``file:line:col: severity RULE: message`` listing."""
    lines = [d.render() for d in sorted(diagnostics, key=Diagnostic.sort_key)]
    n_errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    n_warnings = len(diagnostics) - n_errors
    lines.append(f"{n_errors} error(s), {n_warnings} warning(s)")
    return "\n".join(lines)
