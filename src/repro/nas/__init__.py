"""NSGA-Net: multi-objective evolutionary neural architecture search.

Re-implementation of the NAS the paper composes A4NN with (Lu et al.,
2019): bit-string genomes over a phase-structured macro search space
(:mod:`repro.nas.genome`), a decoder materializing genomes as runnable
networks (:mod:`repro.nas.decoder`), NSGA-II selection machinery
(:mod:`repro.nas.nsga2`), genetic operators
(:mod:`repro.nas.operators`), and the search driver
(:mod:`repro.nas.search`) with two interchangeable evaluation backends —
real training (:mod:`repro.nas.evaluation`) and paper-scale surrogate
curves (:mod:`repro.nas.surrogate`).
"""

from repro.nas.decoder import DecoderConfig, PhaseBlock, decode_genome
from repro.nas.evaluation import Evaluator, TrainingEvaluator
from repro.nas.genome import Genome, PhaseGenome, n_connection_bits, random_genome
from repro.nas.nsga2 import (
    binary_tournament,
    crowded_compare,
    crowding_distance,
    dominates,
    environmental_selection,
    fast_non_dominated_sort,
    pareto_front_mask,
)
from repro.nas.operators import bitflip_mutation, point_crossover, uniform_crossover
from repro.nas.population import Individual, Population
from repro.nas.search import NSGANet, NSGANetConfig, SearchResult
from repro.nas.surrogate import (
    REGIMES,
    CurveRegime,
    SurrogateEvaluator,
    sample_curve,
)

__all__ = [
    "DecoderConfig",
    "PhaseBlock",
    "decode_genome",
    "Evaluator",
    "TrainingEvaluator",
    "Genome",
    "PhaseGenome",
    "n_connection_bits",
    "random_genome",
    "binary_tournament",
    "crowded_compare",
    "crowding_distance",
    "dominates",
    "environmental_selection",
    "fast_non_dominated_sort",
    "pareto_front_mask",
    "bitflip_mutation",
    "point_crossover",
    "uniform_crossover",
    "Individual",
    "Population",
    "NSGANet",
    "NSGANetConfig",
    "SearchResult",
    "REGIMES",
    "CurveRegime",
    "SurrogateEvaluator",
    "sample_curve",
]
