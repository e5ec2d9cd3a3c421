"""The module-state rule: CONC001 (module state written at run time)."""

import textwrap

from repro.tooling.linter import Linter


def lint(sources: dict) -> list:
    return Linter().lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()}
    ).diagnostics


def rule_hits(diagnostics, rule_id):
    return [d for d in diagnostics if d.rule_id == rule_id]


# -- CONC001: module state written from a function body ------------------------


def test_conc001_flags_reachable_module_container_write():
    diags = lint({
        "repro/registry.py": """
            _SEEN = {}
            def remember(spec):
                _SEEN[spec.seed] = spec
        """,
    })
    hits = rule_hits(diags, "CONC001")
    assert len(hits) == 1
    assert hits[0].path == "repro/registry.py"
    assert "remember() writes into module-level container '_SEEN'" in hits[0].message


def test_conc001_flags_global_rebind_and_mutator_methods():
    diags = lint({
        "repro/xfel/shm.py": """
            _CACHE = []
            _TOTAL = 0
            def attach(block):
                global _TOTAL
                _TOTAL = _TOTAL + 1
                _CACHE.append(block)
        """,
    })
    assert len(rule_hits(diags, "CONC001")) == 2


def test_conc001_flags_writes_no_worker_entry_calls():
    # the rule asks for no call graph: a module nothing imports is held
    # to the same contract, and a nested def is reported once
    diags = lint({
        "repro/analysis.py": """
            _MEMO = {}
            def cache_result(key, value):
                def store():
                    _MEMO[key] = value
                    del _MEMO[key]
                store()
        """,
    })
    assert len(rule_hits(diags, "CONC001")) == 2


def test_conc001_clean_for_local_state_and_import_time_writes():
    diags = lint({
        "repro/scheduler/procpool.py": """
            _TABLE = {}
            _TABLE["built"] = "at import time"
            def _worker_main(conn, spec):
                seen = {}
                seen[spec.seed] = spec
                return seen, _TABLE["built"]
        """,
    })
    assert rule_hits(diags, "CONC001") == []
