"""Regenerate ``prepr_float64_real.json``.

Run from the repo root with
``PYTHONPATH=src python tests/fixtures/make_prepr_float64_real.py``.
The fixture pins a small seeded real-mode run on the legacy numerics
(float64, model-keyed RNG, no evaluation cache), which
``tests/test_evalcache.py::TestFloat64Regression`` reproduces byte for
byte.  First captured on the pre-dtype-policy tree; re-pinned once, by
the PR that replaced the per-epoch trust-region fit with variable
projection: ``genome``, ``flops`` and every ``fitness_history`` prefix
the two runs share stayed byte-identical (no ``nn`` kernel moved), only
engine predictions and what follows from them changed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.workflow.driver import run_workflow
from repro.workflow.interfaces import WorkflowConfig
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

CONFIG = {
    "dataset": {"image_size": 16, "images_per_class": 20, "intensity": "high"},
    "engine": {"e_pred": 8, "tolerance": 1.0},
    "mode": "real",
    "nas": {"generations": 2, "max_epochs": 8, "offspring_per_generation": 4, "population_size": 4},
    "seed": 11,
}
DESCRIPTION = (
    "Seeded real-mode run captured on the pre-dtype-policy tree "
    "(float64, model-keyed RNG, no eval cache)."
)
FIELDS = (
    "epochs_trained", "fitness", "fitness_history", "flops", "generation",
    "genome", "measured_fitness", "model_id", "terminated_early",
)


def fixture_config() -> WorkflowConfig:
    return WorkflowConfig(
        nas=NSGANetConfig(**CONFIG["nas"]),
        engine=EngineConfig(**CONFIG["engine"]),
        dataset=DatasetConfig(
            intensity=BeamIntensity.from_label(CONFIG["dataset"]["intensity"]),
            images_per_class=CONFIG["dataset"]["images_per_class"],
            image_size=CONFIG["dataset"]["image_size"],
        ),
        mode=CONFIG["mode"],
        seed=CONFIG["seed"],
        n_gpus=(1,),
        dtype="float64",
        rng_keying="model",
        eval_cache=False,
    )


def main() -> None:
    result = run_workflow(fixture_config())
    models = []
    for record in result.tracker.all_records():
        trail = record.to_dict()
        models.append({name: trail[name] for name in FIELDS})
    out = Path(__file__).resolve().parent / "prepr_float64_real.json"
    payload = {"config": CONFIG, "description": DESCRIPTION, "models": models}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out} ({len(models)} models)")


if __name__ == "__main__":
    main()
