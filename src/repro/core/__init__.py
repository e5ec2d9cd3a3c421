"""A4NN's primary contribution: the parametric fitness-prediction engine.

The engine (paper §2.1) predicts the final fitness a neural network will
attain from the first few epochs of its learning curve, letting the
workflow terminate training early once predictions stabilize.  It is
fully decoupled from the NAS: it consumes scalar fitness histories and
produces scalar predictions, nothing else.

Public surface:

* :class:`~repro.core.parametric.ParametricFunction` and the function
  registry (``exp3`` is the paper's ``a - b**(c-x)``).
* :func:`~repro.core.fitting.fit_curve` — bounded least-squares fitting
  (variable projection for the separable families, the paper's included).
* :class:`~repro.core.engine.PredictionEngine` /
  :class:`~repro.core.engine.EngineConfig` — predictor + analyzer
  (``PredictionEngine.converged`` is the stability rule).
* :func:`~repro.core.plugin.run_training_loop` — the paper's Algorithm 1,
  the one loop that drives the engine (over a fixed curve, through
  :class:`~repro.core.plugin.LearningCurveModel`).
* :func:`~repro.core.calibration.measure_engine_behaviour` — Algorithm 1
  over a curve bank, aggregated (the surrogate-regime calibration test
  and both engine ablations).
"""

from repro.core.calibration import EngineBehaviour, measure_engine_behaviour
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.fitting import CurveFit, FitError, fit_curve
from repro.core.parametric import FUNCTION_REGISTRY, ParametricFunction, get_function
from repro.core.plugin import TrainableModel, TrainingResult, run_training_loop

__all__ = [
    "EngineBehaviour",
    "measure_engine_behaviour",
    "EngineConfig",
    "PredictionEngine",
    "CurveFit",
    "FitError",
    "fit_curve",
    "FUNCTION_REGISTRY",
    "ParametricFunction",
    "get_function",
    "TrainableModel",
    "TrainingResult",
    "run_training_loop",
]
