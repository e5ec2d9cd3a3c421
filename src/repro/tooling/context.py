"""The parsed-module context handed to lint rules.

Rules never read the filesystem themselves: the linter parses each file
once into a :class:`ModuleContext` (source, AST, comment tokens), the
same whether the source came from disk or from an in-memory test
fixture, and a rule sees that one module and nothing else.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ModuleContext", "package_path", "module_name"]

_PACKAGE_ROOT = "repro"


def module_name(pkg_path: str) -> str:
    """Dotted module name for a package-rooted path.

    ``repro/nn/layers/dense.py`` → ``repro.nn.layers.dense``;
    ``repro/nn/layers/__init__.py`` → ``repro.nn.layers``.  Paths outside
    the package keep their stem chain so fixtures still get stable names.
    """
    parts = pkg_path.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def package_path(path: str | Path) -> str:
    """The path tail starting at the ``repro`` package root, POSIX style.

    ``src/repro/nn/layers/dense.py`` → ``repro/nn/layers/dense.py``.
    Paths outside the package are returned unchanged (as POSIX), which
    keeps location-scoped rules inert on foreign files.
    """
    posix = Path(path).as_posix()
    parts = posix.split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == _PACKAGE_ROOT:
            return "/".join(parts[i:])
    return posix


def _relative_base(mod_name: str, level: int, is_package: bool) -> str:
    """The package a ``from ...x import y`` (level dots) resolves against."""
    parts = mod_name.split(".")
    # a package module (__init__) is its own first parent
    drop = level - 1 if is_package else level
    if drop > 0:
        parts = parts[:-drop] if drop < len(parts) else []
    return ".".join(parts)


@dataclass
class ModuleContext:
    """One parsed source file plus its location metadata.

    Attributes
    ----------
    display_path:
        The path reported in diagnostics (as the user supplied it, or
        the virtual path of an in-memory fixture).
    pkg_path:
        ``repro/...``-rooted POSIX path used for rule scoping.
    source, tree:
        Raw text and parsed AST.
    """

    display_path: str
    pkg_path: str
    source: str
    tree: ast.Module
    _comments: "list[tuple[int, int, str]] | None" = None
    _imports: "dict[str, str] | None" = None

    @classmethod
    def parse(
        cls, source: str, display_path: str, *, pkg_path: str | None = None
    ) -> "ModuleContext":
        """Parse ``source``; raises :class:`SyntaxError` on bad input."""
        tree = ast.parse(source, filename=display_path)
        return cls(
            display_path=display_path,
            pkg_path=pkg_path if pkg_path is not None else package_path(display_path),
            source=source,
            tree=tree,
        )

    @property
    def mod_name(self) -> str:
        """Dotted module name derived from ``pkg_path``."""
        return module_name(self.pkg_path)

    def in_location(self, *suffixes_or_dirs: str) -> bool:
        """Whether this module lives at any of the given package spots.

        Arguments ending in ``/`` match directories (prefix under the
        package root); others match exact file suffixes, e.g.
        ``utils/rng.py`` or ``nn/layers/``.
        """
        for spec in suffixes_or_dirs:
            probe = f"{_PACKAGE_ROOT}/{spec}"
            if spec.endswith("/"):
                if self.pkg_path.startswith(probe):
                    return True
            elif self.pkg_path == probe or self.pkg_path.endswith("/" + spec):
                return True
        return False

    def imports(self) -> dict[str, str]:
        """The module's import table: local name → dotted target.

        ``import numpy as np`` binds ``np`` → ``numpy``; ``from time
        import perf_counter as pc`` binds ``pc`` → ``time.perf_counter``;
        relative imports resolve against ``mod_name``.  Imports at any
        depth count (a function-local import still names the same
        thing).  Memoized.
        """
        if self._imports is not None:
            return self._imports
        table: dict[str, str] = {}
        is_package = self.pkg_path.endswith("/__init__.py")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    table[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    prefix = _relative_base(self.mod_name, node.level, is_package)
                    base = f"{prefix}.{base}" if base and prefix else (prefix or base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        self._imports = table
        return table

    def resolve(self, chain: str) -> str:
        """Canonicalise a dotted reference through this module's imports.

        ``npr.rand`` after ``import numpy.random as npr`` →
        ``numpy.random.rand``; ``perf_counter`` after ``from time import
        perf_counter`` → ``time.perf_counter``.  A head that is not an
        imported name is left as written, except that the conventional
        ``np`` spelling is read as ``numpy`` so un-imported fixtures and
        real modules classify alike.
        """
        head, _, rest = chain.partition(".")
        target = self.imports().get(head, "numpy" if head == "np" else head)
        return f"{target}.{rest}" if rest else target

    def comments(self) -> list[tuple[int, int, str]]:
        """All comment tokens as ``(line, col, text)`` triples.

        Tokenization failures (which imply the file would not parse
        either) yield an empty list; the parse-error diagnostic is
        raised separately by the linter.  The result is memoized.
        """
        if self._comments is not None:
            return self._comments
        found: list[tuple[int, int, str]] = []
        try:
            for token in tokenize.generate_tokens(io.StringIO(self.source).readline):
                if token.type == tokenize.COMMENT:
                    found.append((token.start[0], token.start[1], token.string))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            found = []
        self._comments = found
        return found

