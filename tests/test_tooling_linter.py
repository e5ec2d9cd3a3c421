"""The `a4nn check` linter: per-rule fixtures, suppressions, self-check."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.tooling.context import ModuleContext
from repro.tooling.linter import (
    PARSE_ERROR_ID,
    SKIPPED_FILE_ID,
    Linter,
    collect_files,
    run_check,
)
from repro.tooling.rules import inject_catalog, markdown_catalog, rule_ids

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = SRC.parent


def lint(sources: dict) -> list:
    """Lint in-memory fixtures; sources are dedented automatically."""
    return Linter().lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()}
    ).diagnostics


def rule_hits(diagnostics, rule_id):
    return [d for d in diagnostics if d.rule_id == rule_id]


# -- DET001: RNG discipline ----------------------------------------------------


def test_det001_flags_global_numpy_rng():
    diags = lint({"repro/core/bad.py": """
        import numpy as np
        np.random.seed(0)
        def draw():
            return np.random.rand(3)
    """})
    assert len(rule_hits(diags, "DET001")) == 2


def test_det001_flags_unseeded_default_rng_and_stdlib_random():
    diags = lint({"repro/nas/bad.py": """
        import random
        import numpy as np
        def setup(rng=None):
            rng = rng if rng is not None else np.random.default_rng()
            return rng, random.random()
    """})
    assert len(rule_hits(diags, "DET001")) == 2


def test_det001_allows_seeded_generators_and_rng_module():
    diags = lint({
        "repro/experiments/ok.py": """
            import numpy as np
            rng = np.random.default_rng(42)
            gen = np.random.Generator(np.random.PCG64(7))
        """,
        "repro/utils/rng.py": """
            import numpy as np
            def anything():
                return np.random.default_rng()
        """,
    })
    assert rule_hits(diags, "DET001") == []


# -- DET002: clock discipline --------------------------------------------------


def test_det002_flags_wall_clock_outside_timing():
    diags = lint({"repro/workflow/bad.py": """
        import time
        from datetime import datetime
        def stamp():
            return time.time(), datetime.now()
    """})
    assert len(rule_hits(diags, "DET002")) == 2


def test_det002_exempts_utils_timing():
    diags = lint({"repro/utils/timing.py": """
        import time
        def now():
            return time.perf_counter()
    """})
    assert rule_hits(diags, "DET002") == []


# -- DET001/DET002: names resolve through the module's own imports -------------


@pytest.mark.parametrize(
    "rule_id, source",
    [
        ("DET001", "from numpy.random import default_rng\ndef f():\n    return default_rng()\n"),
        ("DET001", "import numpy.random as npr\nx = npr.rand(3)\n"),
        ("DET002", "from time import perf_counter\nt = perf_counter()\n"),
        ("DET002", "from datetime import datetime as dt\nstamp = dt.now()\n"),
    ],
    ids=["from-numpy.random", "numpy.random-as", "from-time", "datetime-as"],
)
def test_det_rules_see_through_import_aliases(rule_id, source):
    diags = lint({"repro/nas/aliased.py": source})
    assert [d.rule_id for d in diags] == [rule_id]


def test_det_rules_keep_sanctioned_aliased_spellings_clean():
    diags = lint({"repro/nas/ok.py": """
        from numpy.random import default_rng
        from repro.utils.rng import fallback_rng
        from repro.utils.timing import Stopwatch
        def draw(rng=None):
            rng = rng if rng is not None else fallback_rng()
            return default_rng(7).random() + rng.random(), Stopwatch()
    """})
    assert diags == []


def test_import_table_resolves_aliases_and_from_imports():
    module = ModuleContext.parse(textwrap.dedent("""
        import numpy as np
        import numpy.random as npr
        import os.path
        from repro.b import helper
        from repro.b import helper as h2
        from . import b
    """), "repro/a.py")
    assert module.imports() == {
        "np": "numpy",
        "npr": "numpy.random",
        "os": "os",
        "helper": "repro.b.helper",
        "h2": "repro.b.helper",
        "b": "repro.b",
    }
    assert module.resolve("npr.rand") == "numpy.random.rand"
    assert module.resolve("b.helper") == "repro.b.helper"
    assert module.resolve("local.attr") == "local.attr"  # not an import: as written


def test_import_table_resolves_relative_imports_from_submodule_and_package():
    sub = ModuleContext.parse("from ..other import thing\n", "repro/pkg/mod.py")
    assert sub.imports()["thing"] == "repro.other.thing"
    pkg = ModuleContext.parse("from .mod import thing\n", "repro/pkg/__init__.py")
    assert pkg.imports()["thing"] == "repro.pkg.mod.thing"


# -- NUM001: swallowed broad excepts -------------------------------------------


def test_num001_flags_silent_broad_except():
    diags = lint({"repro/scheduler/bad.py": """
        def quiet():
            try:
                risky()
            except Exception:
                pass
            try:
                risky()
            except:
                return None
    """})
    assert len(rule_hits(diags, "NUM001")) == 2


def test_num001_accepts_narrow_logged_or_reraised():
    diags = lint({"repro/scheduler/ok.py": """
        import logging
        log = logging.getLogger(__name__)
        def loud():
            try:
                risky()
            except ValueError:
                pass
            try:
                risky()
            except Exception as exc:
                log.warning("failed: %s", exc)
            try:
                risky()
            except Exception:
                raise
    """})
    assert rule_hits(diags, "NUM001") == []


# -- NUM004: unbounded retry loops ---------------------------------------------


def test_num004_flags_while_true_retry_swallow():
    diags = lint({"repro/workflow/bad.py": """
        def fetch(evaluator, ind):
            while True:
                try:
                    return evaluator.evaluate(ind)
                except RuntimeError:
                    pass
    """})
    assert len(rule_hits(diags, "NUM004")) == 1
    assert "unbounded retry" in rule_hits(diags, "NUM004")[0].message


def test_num004_accepts_bounded_and_escaping_loops():
    diags = lint({
        "repro/workflow/ok.py": """
            def bounded(evaluator, ind, tries=3):
                for _ in range(tries):
                    try:
                        return evaluator.evaluate(ind)
                    except RuntimeError:
                        continue
                raise RuntimeError("exhausted")

            def escapes(evaluator, ind):
                while True:
                    try:
                        return evaluator.evaluate(ind)
                    except RuntimeError:
                        raise

            def breaks_out(queue):
                while True:
                    try:
                        item = queue.get_nowait()
                    except LookupError:
                        pass
                    else:
                        return item
                    break
        """,
    })
    assert rule_hits(diags, "NUM004") == []


def test_num004_exempts_fault_policy_seam():
    diags = lint({"repro/scheduler/faults.py": """
        def spin(evaluator, ind):
            while True:
                try:
                    return evaluator.evaluate(ind)
                except RuntimeError:
                    pass
    """})
    assert rule_hits(diags, "NUM004") == []


# -- suppressions ---------------------------------------------------------------


def test_justified_noqa_suppresses_the_diagnostic():
    diags = lint({"repro/core/bad.py": """
        import numpy as np
        np.random.seed(0)  # a4nn: noqa(DET001) -- fixture exercising legacy seeding
    """})
    assert diags == []


def test_unjustified_noqa_is_an_error_and_suppresses_nothing():
    diags = lint({"repro/core/bad.py": """
        import numpy as np
        np.random.seed(0)  # a4nn: noqa(DET001)
    """})
    assert len(rule_hits(diags, "SUP001")) == 1
    assert len(rule_hits(diags, "DET001")) == 1  # original survives


def test_noqa_with_unknown_rule_id_is_an_error():
    diags = lint({"repro/core/odd.py": """
        x = 1  # a4nn: noqa(NOPE99) -- misdirected
    """})
    hits = rule_hits(diags, "SUP001")
    assert len(hits) == 1 and "NOPE99" in hits[0].message


def test_noqa_only_covers_named_rules_on_its_line():
    diags = lint({"repro/core/bad.py": """
        import time
        import numpy as np
        np.random.seed(0)  # a4nn: noqa(DET002) -- wrong rule named
        time.time()
    """})
    assert len(rule_hits(diags, "DET001")) == 1
    assert len(rule_hits(diags, "DET002")) == 1


# -- linter machinery -----------------------------------------------------------


def test_syntax_error_reports_parse_diagnostic():
    diags = lint({"repro/core/broken.py": "def oops(:\n"})
    assert [d.rule_id for d in diags] == [PARSE_ERROR_ID]


def test_select_filters_rules():
    sources = {"repro/core/bad.py": "import time\nimport numpy as np\nnp.random.seed(time.time())\n"}
    only_det = Linter(select=["DET001"]).lint_sources(sources).diagnostics
    assert {d.rule_id for d in only_det} == {"DET001"}
    with pytest.raises(ValueError):
        Linter(select=["NOPE99"])


def test_collect_files_rejects_missing_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        collect_files([tmp_path / "nowhere"])


# -- CLI ------------------------------------------------------------------------


def test_cli_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "CONC001", "DET001", "DET002", "NUM001", "NUM004", "SUP001",
    ]


def test_cli_check_exit_codes(tmp_path, capsys):
    bad = tmp_path / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "bad.py").write_text("import numpy as np\nnp.random.seed(0)\n")
    assert main(["check", str(tmp_path)]) == 1
    assert "DET001" in capsys.readouterr().out
    assert main(["check", str(tmp_path), "--select", "DET002"]) == 0
    assert "1 file(s) clean" in capsys.readouterr().out
    assert main(["check", str(tmp_path), "--select", "NOPE99"]) == 2
    assert main(["check", str(tmp_path / "nowhere")]) == 2


# -- GEN001 / GEN002: parse failures and skipped files ---------------------------


def test_parse_diagnostic_reports_line_col_and_offending_text():
    diags = lint({"repro/core/broken.py": "x = 1\ndef oops(:\n"})
    assert len(diags) == 1
    d = diags[0]
    assert d.rule_id == PARSE_ERROR_ID
    assert d.line == 2
    assert "line 2" in d.message
    assert "def oops(:" in d.message


def test_non_utf8_file_is_skipped_with_warning(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "ok.py").write_text("x = 1\n", encoding="utf-8")
    (pkg / "binary.py").write_bytes(b"\x80\x81\x82 not utf-8")
    result = run_check([pkg])
    skips = [d for d in result.diagnostics if d.rule_id == SKIPPED_FILE_ID]
    assert len(skips) == 1
    assert skips[0].path.endswith("binary.py")
    assert "not valid UTF-8" in skips[0].message
    assert result.exit_code == 0  # a warning, not an error


def test_collect_files_skips_pycache_and_hidden_dirs(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / ".tox" / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "__pycache__" / "b.py").write_text("x = 1\n")
    (pkg / ".tox" / "sub" / "c.py").write_text("x = 1\n")
    (pkg / ".hidden.py").write_text("x = 1\n")
    assert collect_files([pkg]) == [pkg / "a.py"]
    # explicitly named files are always included, even under excluded dirs
    explicit = pkg / "__pycache__" / "b.py"
    assert collect_files([explicit]) == [explicit]


# -- suppression edge cases ------------------------------------------------------


def test_noqa_on_the_closing_line_of_a_multiline_statement():
    diags = lint({"repro/core/multi.py": """
        import numpy as np
        value = np.random.rand(
            3,
        )  # a4nn: noqa(DET001) -- fixture: marker on the closing paren line
    """})
    assert rule_hits(diags, "DET001") == []
    assert rule_hits(diags, "SUP001") == []


def test_noqa_on_the_opening_line_of_a_multiline_statement():
    diags = lint({"repro/core/multi.py": """
        import numpy as np
        value = np.random.rand(  # a4nn: noqa(DET001) -- fixture: opening line
            3,
        )
    """})
    assert rule_hits(diags, "DET001") == []
    assert rule_hits(diags, "SUP001") == []


def test_noqa_on_compound_header_does_not_blanket_the_body():
    diags = lint({"repro/core/hdr.py": """
        import numpy as np
        def draw():  # a4nn: noqa(DET001) -- fixture: header marker must not leak
            return np.random.rand()
    """})
    assert len(rule_hits(diags, "DET001")) == 1


def test_stacked_noqa_markers_on_one_line():
    diags = lint({"repro/core/both.py": """
        import time
        import numpy as np
        x = np.random.rand() + time.time()  # a4nn: noqa(DET001) -- fixture rng  # a4nn: noqa(DET002) -- fixture clock
    """})
    assert rule_hits(diags, "DET001") == []
    assert rule_hits(diags, "DET002") == []
    assert rule_hits(diags, "SUP001") == []


def test_stacked_noqa_markers_are_validated_independently():
    diags = lint({"repro/core/both.py": """
        import time
        import numpy as np
        x = np.random.rand() + time.time()  # a4nn: noqa(DET001) -- fixture rng  # a4nn: noqa(DET002)
    """})
    assert rule_hits(diags, "DET001") == []  # the justified marker still works
    assert len(rule_hits(diags, "DET002")) == 1  # the bare one suppresses nothing
    assert len(rule_hits(diags, "SUP001")) == 1


# -- README rule catalog ---------------------------------------------------------


def test_readme_rule_catalog_is_in_sync():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert inject_catalog(readme) == readme, (
        "README rule catalog is stale: run `make readme-rules`"
    )


def test_markdown_catalog_covers_every_registered_rule():
    md = markdown_catalog()
    for rule_id in rule_ids():
        assert f"`{rule_id}`" in md


def test_inject_catalog_requires_markers():
    with pytest.raises(ValueError):
        inject_catalog("no markers here")


def test_cli_check_list_rules_markdown(capsys):
    assert main(["check", "--list-rules", "--format=md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| rule | category |")
    assert "`DET001`" in out


def test_cli_check_rejects_md_format_without_list_rules(tmp_path, capsys):
    assert main(["check", str(tmp_path), "--format=md"]) == 2


# -- self-check: the repo passes its own linter (tier-1 regression gate) --------


def test_repo_source_passes_a4nn_check():
    result = run_check([SRC])
    listing = "\n".join(d.render() for d in result.diagnostics)
    assert result.exit_code == 0, f"a4nn check found violations:\n{listing}"
    assert result.n_files > 100  # the whole tree was actually scanned


# -- the runtime sanitizer does not drag the linter in ---------------------------


def test_importing_the_library_does_not_import_the_linter():
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import repro.workflow, repro.lineage, repro.analysis, repro.scheduler; "
        "assert 'repro.tooling.sanitizer' in sys.modules; "
        "loaded = [m for m in sys.modules if m.startswith('repro.tooling.') "
        "and m != 'repro.tooling.sanitizer']; "
        "loaded += [m for m in ('scipy.optimize', 'scipy.stats') "
        "if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)
