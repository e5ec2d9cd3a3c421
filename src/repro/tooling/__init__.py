"""Correctness tooling for the A4NN stack.

Two independent halves (see README § "Static analysis"):

* a self-hosted per-file AST linter (:mod:`repro.tooling.linter`, rules
  under :mod:`repro.tooling.rules`) enforcing the determinism,
  concurrency, fault-visibility, dtype-seam and lineage-schema
  invariants that no test or runtime guard observes; and
* an opt-in runtime sanitizer (:mod:`repro.tooling.sanitizer`) that
  asserts finite activations/gradients/losses, layer shape contracts
  and read-only layer inputs during real training, raising a structured
  :class:`~repro.tooling.sanitizer.NumericalFault` recorded into
  lineage.

The package imports neither half: the library (and every spawned
worker) imports ``repro.tooling.sanitizer`` without paying for the
linter, and ``a4nn check`` imports ``repro.tooling.linter`` on demand.
"""
