"""The paper's runs, published to a data commons once and read back as records.

Figs. 6-10 and Table 3 are views of the same runs (A4NN and standalone
NSGA-Net per beam intensity), so the commons is their memo, and a grid
killed part-way continues from its files.
"""

from __future__ import annotations

from repro.experiments.configs import DEFAULT_SEED, PAPER_ENGINE_CONFIG, PAPER_NAS_CONFIG
from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord
from repro.utils.validation import ValidationError
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.workflow.resume import resume_workflow
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

__all__ = ["paper_config", "paper_pairs", "run_grid"]


def paper_config(intensity: BeamIntensity, *, seed: int = DEFAULT_SEED) -> WorkflowConfig:
    """The paper's Table 1 + Table 2 settings at one beam intensity (sampled curves)."""
    return WorkflowConfig(
        nas=PAPER_NAS_CONFIG,
        engine=PAPER_ENGINE_CONFIG,
        dataset=DatasetConfig(intensity=intensity),
        n_gpus=(1, 4),
        seed=seed,
    )


def run_grid(commons: DataCommons, configs) -> dict[str, list[ModelRecord]]:
    """Every config's published records, keyed by its resolved run id.

    A listed run is read as it is; an unlisted (killed) one is resumed,
    or run afresh if its initial population never committed; a new one
    is run.  A run id stored with another config raises ValidationError.
    """
    listed = set(commons.run_ids())
    grid: dict[str, list[ModelRecord]] = {}
    for config in configs:
        run_id = config.resolved_run_id()
        known = (commons.root / "runs" / run_id / "run.json").is_file()
        if known and WorkflowConfig.from_dict(commons.load_run(run_id).workflow_config) != config:
            raise ValidationError(f"run {run_id!r} in {commons.root} was run with another config")
        if run_id not in listed:
            if known and len(commons.load_models(run_id)) >= config.nas.population_size:
                resume_workflow(commons, run_id)
            else:
                A4NNOrchestrator(config, commons=commons).run()
        grid[run_id] = commons.load_models(run_id)
    return grid


def paper_pairs(
    commons: DataCommons, *, seed=DEFAULT_SEED, intensities=tuple(BeamIntensity), standalone=True
) -> dict[str, tuple]:
    """The paper-scale runs at ``seed`` from the grid, per intensity label.

    Each is ``(config, a4nn, baseline)``: the A4NN run's config (its stored
    one), its records, and the standalone baseline's (none unless asked for).
    """
    configs = [paper_config(intensity, seed=seed) for intensity in intensities]
    arms = [c for a4nn in configs for c in (a4nn, a4nn.standalone())[: 1 + standalone]]
    records = run_grid(commons, arms)
    return {
        a4nn.intensity.label: (
            a4nn,
            records[a4nn.resolved_run_id()],
            records.get(a4nn.standalone().resolved_run_id(), []),
        )
        for a4nn in configs
    }
