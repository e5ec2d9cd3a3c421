"""A4NN — Analytics for Neural Networks.

Reproduction of *"Composable Workflow for Accelerating Neural
Architecture Search Using In Situ Analytics for Protein Classification"*
(ICPP 2023).  The package is organized as the paper's Fig. 1:

* :mod:`repro.core` — the parametric fitness-prediction engine
  (parametric modeling + prediction analyzer) and the Algorithm-1
  training-loop plug-in.  This is the primary contribution.
* :mod:`repro.nn` — from-scratch NumPy deep-learning substrate
  (PyTorch substitute).
* :mod:`repro.xfel` — simulated XFEL protein-diffraction datasets
  (spsim/Xmipp substitute).
* :mod:`repro.nas` — NSGA-Net: multi-objective evolutionary NAS.
* :mod:`repro.workflow` — the orchestrator tying NAS, engine, scheduler
  and lineage together.
* :mod:`repro.scheduler` — FIFO dynamic GPU scheduling (Ray substitute)
  with a discrete-event wall-time simulator.
* :mod:`repro.lineage` — record trails and the NN data commons.
* :mod:`repro.analysis` — Pareto/learning-curve analytics and NN
  structure visualization (the Analyzer).
* :mod:`repro.baselines` — XPSI (autoencoder + kNN) and standalone-NAS
  baselines.
* :mod:`repro.experiments` — one module per paper table/figure.

Quick start::

    from repro.core import PredictionEngine, run_training_loop
    from repro.core.plugin import LearningCurveModel
    engine = PredictionEngine()          # paper Table 1 defaults
    result = run_training_loop(          # Algorithm 1 over percent accuracies
        LearningCurveModel(curve), engine, len(curve),
        epoch_callback=lambda epoch, accuracy, prediction: print(epoch, prediction),
    )
    result.terminated_early, result.fitness   # early stop, predicted fitness
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
