"""Shared benchmark infrastructure.

Each benchmark module regenerates one paper artifact (table/figure),
prints a paper-vs-measured report, writes it under
``benchmarks/reports/``, and asserts the paper's qualitative *shape*
properties.  The paper-scale runs are published to one data commons per
session (``commons``), so artifacts sharing runs (Figs. 6-10, Table 3)
pay for each search once per session and read it back as records.
"""

import logging
import sys
from pathlib import Path

import pytest

try:
    import repro  # noqa: F401 -- probe for an installed package (pip install -e .)
except ModuleNotFoundError:  # fall back to the in-repo source tree
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

logging.disable(logging.INFO)

REPORT_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def commons(tmp_path_factory):
    """The session's data commons: every benchmark's runs, published once."""
    from repro.lineage.commons import DataCommons

    return DataCommons(tmp_path_factory.mktemp("commons"))


@pytest.fixture(scope="session")
def report_dir():
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


@pytest.fixture
def emit_report(report_dir):
    """Print a report and persist it under benchmarks/reports/."""

    def _emit(name: str, text: str) -> str:
        print(f"\n{text}\n")
        (report_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        return text

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
