"""The ``a4nn check`` linter: run the rule catalog over a source tree.

The linter parses one file at a time, runs every rule that applies to
it, drops findings covered by a justified ``noqa`` (statement-span
aware), and returns sorted diagnostics.  It is
importable (the test suite runs it in-process on ``src/``) and drives
the ``a4nn check`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.tooling.context import ModuleContext
from repro.tooling.diagnostics import Diagnostic, Severity
from repro.tooling.rules import all_rules, rule_ids
from repro.tooling.rules.suppressions import suppressed_lines

__all__ = [
    "CheckResult",
    "Linter",
    "collect_files",
    "run_check",
    "PARSE_ERROR_ID",
    "SKIPPED_FILE_ID",
]

#: Pseudo-rule id for files that do not parse at all.
PARSE_ERROR_ID = "GEN001"

#: Pseudo-rule id (warning) for files skipped because they are not UTF-8.
SKIPPED_FILE_ID = "GEN002"


@dataclass
class CheckResult:
    """Outcome of one linter invocation."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    n_files: int = 0

    @property
    def n_errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when any error-severity diagnostic fired."""
        return 1 if self.n_errors else 0


def _excluded(rel_parts: tuple[str, ...]) -> bool:
    return any(part == "__pycache__" or part.startswith(".") for part in rel_parts)


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list.

    Directory walks deterministically skip ``__pycache__`` and hidden
    directories (any path component starting with ``.``); explicitly
    named files are always included.
    """
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if _excluded(candidate.relative_to(path).parts):
                    continue
                seen.setdefault(candidate, None)
        elif path.is_file():
            seen.setdefault(path, None)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return list(seen)


class Linter:
    """Run the registered rule catalog over source files.

    Parameters
    ----------
    select:
        Optional rule-id allowlist; unknown ids raise ``ValueError``.
    """

    def __init__(self, *, select: Iterable[str] | None = None) -> None:
        chosen = all_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {r.rule_id for r in chosen}
            if unknown:
                raise ValueError(f"--select names unknown rule id(s): {sorted(unknown)}")
            chosen = [r for r in chosen if r.rule_id in wanted]
        self.rules = chosen
        self._known = set(rule_ids())

    # -- entry points -----------------------------------------------------------

    def lint_paths(self, paths: Iterable[str | Path]) -> CheckResult:
        """Lint files/directories from disk."""
        files = collect_files(paths)
        found: list[Diagnostic] = []
        for path in files:
            try:
                source = path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                found.append(_skip_warning(str(path), exc))
            else:
                found.extend(self._lint_file(str(path), source))
        found.sort(key=Diagnostic.sort_key)
        return CheckResult(diagnostics=found, n_files=len(files))

    def lint_sources(self, sources: Mapping[str, str]) -> CheckResult:
        """Lint in-memory ``{virtual_path: source}`` fixtures (tests)."""
        found = [d for path, source in sources.items() for d in self._lint_file(path, source)]
        found.sort(key=Diagnostic.sort_key)
        return CheckResult(diagnostics=found, n_files=len(sources))

    def _lint_file(self, display: str, source: str) -> list[Diagnostic]:
        """Every unsuppressed finding in one file; no rule sees another."""
        try:
            module = ModuleContext.parse(source, display)
        except SyntaxError as exc:
            return [_parse_failure(display, source, exc)]
        suppressed = suppressed_lines(module, self._known)
        return [
            d
            for rule in self.rules
            if rule.applies_to(module)
            for d in rule.check(module)
            if d.rule_id not in suppressed.get(d.line, ())
        ]


def _parse_failure(path: str, source: str, exc: SyntaxError) -> Diagnostic:
    line = int(getattr(exc, "lineno", None) or 1)
    col = max(int((getattr(exc, "offset", None) or 1) - 1), 0)
    offending = (getattr(exc, "text", None) or "").strip()
    if not offending:
        lines = source.splitlines()
        if 0 < line <= len(lines):
            offending = lines[line - 1].strip()
    msg = exc.msg if hasattr(exc, "msg") else str(exc)
    detail = f"file does not parse: {msg} at line {line}, col {col + 1}"
    if offending:
        detail += f": {offending!r}"
    return Diagnostic(
        path=path,
        line=line,
        col=col,
        rule_id=PARSE_ERROR_ID,
        severity=Severity.ERROR,
        message=detail,
    )


def _skip_warning(path: str, exc: UnicodeDecodeError) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=1,
        col=0,
        rule_id=SKIPPED_FILE_ID,
        severity=Severity.WARNING,
        message=f"skipped: file is not valid UTF-8 ({exc.reason} at byte {exc.start})",
    )


def run_check(
    paths: Iterable[str | Path], *, select: Iterable[str] | None = None
) -> CheckResult:
    """One-call convenience used by the CLI and the self-check test."""
    return Linter(select=select).lint_paths(paths)
