# Developer entry points for the A4NN reproduction.
#
# `make check` is the same linter gate pytest runs as a tier-1 test
# (tests/test_tooling_linter.py::test_repo_source_passes_a4nn_check),
# exposed directly for fast pre-commit iteration.  Speed numbers come
# from `python bench_spine/bench.py`, not from a target here.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test bench-kernels bench-paper faults readme-rules pairs all

all: check test

# static-analysis rule catalog over the package source
check:
	$(PYTHON) -m repro check src

lint: check

# tier-1 test suite
test:
	$(PYTHON) -m pytest -x -q

# kernel benchmarks (conv fwd/bwd, dense, a training step, an engine
# fit under pytest-benchmark) and the memory-pass ratio guards; the CI
# job of the same name runs this command
bench-kernels:
	$(PYTHON) -m pytest benchmarks/test_nn_kernels.py -q

# paper-figure benchmark suite (Fig. 8 convergence regimes etc.)
bench-paper:
	$(PYTHON) -m pytest benchmarks -q

# regenerate the README rule-catalog table from the rule registry
# (tests/test_tooling_linter.py asserts it is in sync)
readme-rules:
	$(PYTHON) -c "from pathlib import Path; from repro.tooling.rules import inject_catalog; p = Path('README.md'); p.write_text(inject_catalog(p.read_text(encoding='utf-8')), encoding='utf-8')"

# fault-tolerance suite: retry/quarantine policy, pool failure
# semantics, the deterministic fault-injection harness, and the
# process backend's hard-kill path
faults:
	$(PYTHON) -m pytest tests/test_faults.py tests/test_procpool.py -q

# a perf PR's evidence: the contract command on alternating parent/change
# pairs, e.g. `make pairs PARENT=HEAD~1 WORKLOAD=overhead_steady SEEDS=2501-2510`
pairs:
	$(PYTHON) tools/pairs.py --parent $(PARENT) --workload $(WORKLOAD) --seeds $(SEEDS)
