# Developer entry points for the A4NN reproduction.
#
# `make check` is the same linter gate pytest runs as a tier-1 test
# (tests/test_tooling_linter.py::test_repo_source_passes_a4nn_check),
# exposed directly for fast pre-commit iteration.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test bench bench-kernels bench-paper bench-scale faults readme-rules all

all: check test

# static-analysis rule catalog over the package source
check:
	$(PYTHON) -m repro check src

lint: check

# tier-1 test suite
test:
	$(PYTHON) -m pytest -x -q

# evaluation fast-path benchmark: kernel microbenches + seeded
# end-to-end mini search, diffed against the committed document
bench:
	$(PYTHON) -m repro bench --compare BENCH_evalpath.json --min-speedup 1.2

# kernel-tier smoke: kernel microbenches only (seconds, not minutes —
# skips the end-to-end searches); the CI job runs this
bench-kernels:
	$(PYTHON) -m repro bench --kernels-only --repeats 1

# paper-figure benchmark suite (Fig. 8 convergence regimes etc.)
bench-paper:
	$(PYTHON) -m pytest benchmarks -q

# execution-backend scaling sweep (serial/thread/process × workers),
# diffed structurally against the committed document (wall times are
# machine-dependent and not compared)
bench-scale:
	$(PYTHON) -m repro bench --scaling --compare BENCH_scaling.json

# regenerate the README rule-catalog table from the rule registry
# (tests/test_tooling_linter.py asserts it is in sync)
readme-rules:
	$(PYTHON) -c "from pathlib import Path; from repro.tooling.rules import inject_catalog; p = Path('README.md'); p.write_text(inject_catalog(p.read_text(encoding='utf-8')), encoding='utf-8')"

# fault-tolerance suite: retry/quarantine policy, pool failure
# semantics, the deterministic fault-injection harness, and the
# process backend's hard-kill path
faults:
	$(PYTHON) -m pytest tests/test_faults.py tests/test_procpool.py -q
