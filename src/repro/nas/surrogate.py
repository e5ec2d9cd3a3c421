"""Surrogate evaluation: architecture-conditioned synthetic learning curves.

Paper-scale experiments (100 networks × 25 epochs × 63k images) are far
beyond a single CPU core, so — mirroring how Rorabaugh et al. validated
the PENGUIN engine by simulation on MENNDL — the surrogate evaluator
replaces *only* the gradient-descent inner loop with a stochastic
learning-curve generator.  Everything the paper evaluates (the
prediction engine, Algorithm 1, NSGA-II selection, FIFO scheduling,
lineage records) runs unchanged on these curves.

The generator is conditioned on:

* **architecture** — genomes with more connections/skips get higher
  asymptotic accuracy but cost more FLOPs (computed from the *actually
  decoded* network, so the accuracy/FLOPs trade-off is real); and
* **beam intensity** — each intensity has a curve *regime* calibrated to
  reproduce the paper's three convergence behaviours (Fig. 8):
  low = slow, noisy curves that stabilize late; medium = fast clean
  curves that stabilize early; high = a bimodal mix of very fast
  learners and erratic curves whose predictions never settle.

Curves are deterministic per (root seed, model id, intensity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.core.engine import PredictionEngine
from repro.core.fitting import RidgeFit, ridge_lstsq
from repro.core.plugin import run_training_loop
# decode_genome is not called here any more; bench_spine wraps it by this name
from repro.nas.decoder import DecoderConfig, decode_genome, genome_flops  # noqa: F401
from repro.nas.evaluation import (
    _engine_fingerprint,
    effective_budget,
    retry_salt,
    validate_rng_keying,
)
from repro.nas.genome import Genome, PhaseGenome, n_connection_bits
from repro.nas.population import Individual
from repro.scheduler.costmodel import EpochCostModel
from repro.utils.rng import RngStream
from repro.utils.validation import ValidationError
from repro.xfel.intensity import BeamIntensity

__all__ = [
    "CurveRegime",
    "REGIMES",
    "LearningCurveModel",
    "SurrogateEvaluator",
    "sample_curve",
    "SurrogateConfig",
    "FitnessPredictor",
    "BudgetAllocator",
    "phase_depth",
    "genome_features",
    "genome_feature_names",
    "SKIP_PROBE",
    "SKIP_EXPLORE",
]


@dataclass(frozen=True)
class CurveRegime:
    """Distribution of learning-curve shapes for one beam intensity.

    A sampled curve is ``acc(e) = a - (a - s) * exp(-k * e)`` plus
    Gaussian measurement noise.  Three sub-populations:

    * with probability ``fail_probability`` the network is a flat
      non-learner near 50% (cf. Johnston et al.: a large share of NAS
      candidates fail to learn);
    * with probability ``erratic_probability`` the curve is *erratic*:
      it rises, peaks early, then declines toward a floor
      (overfitting-style collapse) under ``erratic_sigma`` noise.  The
      monotone parametric family cannot settle on such data, so the
      engine's successive extrapolations keep moving — the paper's
      never-terminated models;
    * otherwise the curve is "clean" (``clean_sigma``) and the engine
      terminates it once predictions stabilize.

    The per-intensity constants are calibrated against the engine's
    Table-1 configuration so the three intensities reproduce the
    paper's Fig. 8 convergence regimes (see
    ``benchmarks/test_fig8_convergence.py``).
    """

    asymptote_range: tuple[float, float]
    rate_range: tuple[float, float]
    start_range: tuple[float, float]
    clean_sigma: float
    erratic_probability: float
    erratic_sigma: float
    fail_probability: float


#: Per-intensity regimes calibrated against the paper's Fig. 8 (see
#: benchmarks/test_fig8_convergence.py for the reproduction check).
REGIMES: dict[BeamIntensity, CurveRegime] = {
    # Low intensity: noisy data make every learning curve noisy and slow;
    # ~2/3 of models stabilize late (mean e_t > 18), the rest never do.
    BeamIntensity.LOW: CurveRegime(
        asymptote_range=(88.0, 99.8),
        rate_range=(0.06, 0.16),
        start_range=(48.0, 58.0),
        clean_sigma=2.7,
        erratic_probability=0.0,
        erratic_sigma=3.0,
        fail_probability=0.06,
    ),
    # Medium intensity: mostly clean, mid-rate curves terminating around
    # half the budget; a quarter stay erratic.
    BeamIntensity.MEDIUM: CurveRegime(
        asymptote_range=(96.0, 100.0),
        rate_range=(0.24, 0.48),
        start_range=(52.0, 65.0),
        clean_sigma=1.15,
        erratic_probability=0.42,
        erratic_sigma=2.2,
        fail_probability=0.06,
    ),
    # High intensity: bimodal — very fast clean learners that terminate
    # early, against a large erratic share that trains the full budget
    # (the paper's "inverted bell").
    BeamIntensity.HIGH: CurveRegime(
        asymptote_range=(98.5, 100.0),
        rate_range=(0.25, 0.55),
        start_range=(55.0, 72.0),
        clean_sigma=0.6,
        erratic_probability=0.68,
        erratic_sigma=2.0,
        fail_probability=0.05,
    ),
}



def _capacity_score(genome: Genome) -> float:
    """Architecture capacity in [0, 1] from connectivity density."""
    max_connections = sum(n_connection_bits(n) for n in genome.nodes_per_phase)
    max_skips = genome.n_phases
    raw = (genome.n_connections + genome.n_skips) / max(max_connections + max_skips, 1)
    return float(np.clip(raw, 0.0, 1.0))


def sample_curve(
    genome: Genome,
    regime: CurveRegime,
    rng: np.random.Generator,
    n_epochs: int,
) -> np.ndarray:
    """Draw one noisy learning curve of length ``n_epochs`` (percent accuracy).

    The architecture's capacity score shifts the asymptote within the
    regime's range (denser genomes learn more) and nudges the learning
    rate, so selection pressure toward accuracy is real.
    """
    capacity = _capacity_score(genome)
    epochs = np.arange(1, n_epochs + 1, dtype=float)

    if rng.random() < regime.fail_probability * (1.5 - capacity):
        # non-learner: flat around chance with mild noise
        base = np.full(n_epochs, rng.uniform(48.0, 52.0))
        noise = rng.normal(0.0, 1.0, size=n_epochs)
        return np.clip(base + noise, 0.0, 100.0)

    lo_a, hi_a = regime.asymptote_range
    asymptote = lo_a + (hi_a - lo_a) * (0.35 * rng.random() + 0.65 * capacity)
    lo_k, hi_k = regime.rate_range
    rate = lo_k + (hi_k - lo_k) * (0.7 * rng.random() + 0.3 * capacity)
    start = rng.uniform(*regime.start_range)

    curve = asymptote - (asymptote - start) * np.exp(-rate * epochs)

    if rng.random() < regime.erratic_probability:
        # overfitting-style collapse: early peak, steady decline, floor
        peak_epoch = rng.uniform(1.0, 4.0)
        slope = rng.uniform(1.5, 2.5)
        floor = rng.uniform(55.0, 70.0)
        curve = np.maximum(curve - slope * np.maximum(epochs - peak_epoch, 0.0), floor)
        sigma = regime.erratic_sigma
    else:
        sigma = regime.clean_sigma
    curve = curve + rng.normal(0.0, sigma, size=n_epochs)
    return np.clip(curve, 0.0, 100.0)


class LearningCurveModel:
    """A :class:`~repro.core.plugin.TrainableModel` replaying a fixed curve."""

    def __init__(self, curve: np.ndarray) -> None:
        curve = np.asarray(curve, dtype=float)
        if curve.ndim != 1 or curve.size == 0:
            raise ValueError(f"curve must be non-empty 1-D, got shape {curve.shape}")
        self.curve = curve
        self.epoch = 0

    def train(self) -> None:
        if self.epoch >= len(self.curve):
            raise RuntimeError(f"curve exhausted after {len(self.curve)} epochs")
        self.epoch += 1

    def validate(self) -> float:
        if self.epoch == 0:
            raise RuntimeError("validate() before any train() call")
        return float(self.curve[self.epoch - 1])


class SurrogateEvaluator:
    """Paper-scale evaluator driving Algorithm 1 on synthetic curves.

    Parameters
    ----------
    intensity:
        Beam setting selecting the curve regime.
    engine:
        Prediction engine; ``None`` for the standalone-NAS baseline.
    max_epochs:
        Training budget per network (paper: 25).
    decoder_config:
        Used to decode genomes for *real* FLOP counting.
    cost_model:
        Maps FLOPs to simulated per-epoch seconds.
    rng_stream:
        Root stream; curves/costs derive per model id (or per canonical
        genome under ``rng_keying="genome"``).
    rng_keying:
        Stream-identity policy, as in
        :class:`~repro.nas.evaluation.TrainingEvaluator`: ``"model"``
        keeps historical byte-exact replay, ``"genome"`` makes curves a
        pure function of the canonical genome (cacheable).
    """

    def __init__(
        self,
        intensity: BeamIntensity,
        engine: PredictionEngine | None,
        *,
        max_epochs: int = 25,
        decoder_config: DecoderConfig | None = None,
        cost_model: EpochCostModel | None = None,
        rng_stream: RngStream | None = None,
        regime: CurveRegime | None = None,
        rng_keying: str = "model",
    ) -> None:
        self.intensity = intensity
        self.engine = engine
        self.max_epochs = int(max_epochs)
        self.decoder_config = decoder_config or DecoderConfig()
        self.cost_model = cost_model or EpochCostModel()
        self.rng_stream = rng_stream or RngStream(0)
        self.regime = regime or REGIMES[intensity]
        self.rng_keying = validate_rng_keying(rng_keying)

    def flops_for(self, genome: Genome) -> int:
        """FLOPs of the network the genome decodes to, known before
        evaluation (the budget allocator's dominance test needs them)."""
        return genome_flops(
            genome, self.decoder_config, canonical=self.rng_keying == "genome"
        )

    def _stream_ident(self, individual: Individual):
        if self.rng_keying == "genome":
            return individual.genome.canonical_key()
        return individual.model_id

    def memo_key(self, individual: Individual) -> tuple | None:
        """Cache key for this evaluation, or ``None`` when not cacheable."""
        if self.rng_keying != "genome":
            return None
        budget = effective_budget(individual, self.max_epochs)
        if budget == 0:
            # a zero-budget skip is a prediction, not a measurement
            return None
        return (
            "surrogate",
            individual.genome.canonical_key(),
            self.intensity.label,
            self.max_epochs,
            _engine_fingerprint(self.engine),
            repr(self.regime),
            retry_salt(individual),
            budget,
        )

    def evaluate(self, individual: Individual) -> Individual:
        """Sample a curve, run Algorithm 1 on it, and fill the individual."""
        budget = effective_budget(individual, self.max_epochs)
        if budget == 0:
            if not individual.evaluated:
                raise ValueError(
                    "zero-budget individual must arrive pre-filled by the "
                    f"allocator, got model {individual.model_id}"
                )
            return individual
        salt = retry_salt(individual)
        ident = self._stream_ident(individual)
        curve_rng = self.rng_stream.generator(
            "curve", ident, self.intensity.label, *salt
        )
        cost_rng = self.rng_stream.generator(
            "cost", ident, self.intensity.label, *salt
        )
        # The curve is always sampled at the full budget so a reduced-budget
        # probe trains an exact prefix of what full training would have seen
        # (and the off-mode RNG stream is untouched).
        curve = sample_curve(individual.genome, self.regime, curve_rng, self.max_epochs)
        model = LearningCurveModel(curve)

        def on_epoch(epoch: int, fitness: float, prediction: float | None) -> None:
            individual.trace.append((epoch, fitness, prediction, None, None))

        result = run_training_loop(model, self.engine, budget, epoch_callback=on_epoch)

        flops = self.flops_for(individual.genome)
        individual.fitness = result.fitness
        individual.flops = flops
        individual.result = result
        individual.epoch_seconds = list(
            self.cost_model.sample_epoch_seconds(
                flops, cost_rng, size=result.epochs_trained
            )
        )
        return individual


# ---------------------------------------------------------------------------
# Cross-architecture fitness prediction (surrogate pre-ranking)
# ---------------------------------------------------------------------------
#
# Everything above simulates *one* model's training; everything below
# predicts fitness *across* models from the lineage commons, before any
# training happens, so the orchestrator can spend full epoch budgets only
# on predicted winners (PEng4NN / Baker et al.; see DESIGN §14).

#: ``skip_reason`` value for a candidate probed at the reduced budget.
SKIP_PROBE = "predicted_loser"
#: ``skip_reason`` value for a predicted loser granted full budget by the
#: exploration floor (so the predictor keeps seeing its own mistakes).
SKIP_EXPLORE = "exploration"


@lru_cache(maxsize=4096)
def phase_depth(phase: PhaseGenome) -> int:
    """Longest input→output path through the phase DAG, in nodes.

    Nodes without predecessors read the phase input, so every node starts
    a chain of length 1; an edge ``i -> j`` extends the chain.  This is
    the per-phase "effective depth" feature of the genome featurization.
    Memoised by *value* (a frozen :class:`PhaseGenome` hashes and compares
    by ``(n_nodes, bits)``): every offspring is a fresh instance, so a
    per-instance memo would never hit; the live featurization and
    ``analysis.training_matrix`` share this one.
    """
    matrix = phase.connection_matrix()
    depth = [1] * phase.n_nodes
    for j in range(1, phase.n_nodes):
        feeding = [depth[i] for i in range(j) if matrix[i, j]]
        if feeding:
            depth[j] = 1 + max(feeding)
    return max(depth)


def genome_feature_names(nodes_per_phase: Sequence[int]) -> list[str]:
    """Column names of :func:`genome_features` for ``nodes_per_phase``."""
    names = ["bias"]
    for p in range(len(nodes_per_phase)):
        names += [f"phase{p}_connections", f"phase{p}_skip", f"phase{p}_depth"]
    names += ["total_connections", "total_skips", "density", "log10_flops"]
    return names


def genome_features(genome: Genome, flops: float) -> tuple:
    """Deterministic feature row for the cross-architecture predictor.

    Purely structural statistics of the genome (per-phase connection
    counts, skip bits, and DAG depth, plus totals and connectivity
    density) and the decoded network's FLOP count on a log scale.  The
    decoder's per-phase operation and width schedule is fixed, so layer
    op/width/kernel statistics and parameter counts are functions of this
    structure — the FLOPs column is where they enter numerically.

    The same row must be computable offline from a lineage record alone
    (genome dict + stored FLOPs); keep this in sync with
    :func:`repro.analysis.queries.training_matrix`.
    """
    row: list[float] = [1.0]
    for phase in genome.phases:
        row += [float(phase.n_connections), float(phase.skip), float(phase_depth(phase))]
    row += [
        float(genome.n_connections),
        float(genome.n_skips),
        _capacity_score(genome),
        float(np.log10(1.0 + float(flops))),
    ]
    return tuple(row)


@dataclass(frozen=True)
class SurrogateConfig:
    """Settings for surrogate pre-ranking (``--surrogate rank``).

    Attributes
    ----------
    probe_epochs:
        Budget assigned to predicted losers (0 skips training entirely
        and records the prediction as the fitness; 1 trains a single
        probe epoch so the skip decision has a measured outcome).
    min_records:
        Committed full-budget records required before any scoring — the
        cold-start floor below which every candidate trains normally.
    explore_every:
        Every ``explore_every``-th predicted loser is granted the full
        budget anyway (``skip_reason="exploration"``), so the predictor
        keeps receiving ground truth in the region it is skipping and
        cannot collapse the search.
    band:
        Uncertainty band width in training-RMSE units; a candidate is
        only probed when even ``predicted + band * sigma`` is dominated
        by the current population.
    min_dominators:
        How many current members must dominate the optimistic estimate
        before the candidate counts as a predicted loser.
    ridge:
        Ridge regularization for the least-squares refit.
    sigma_floor:
        Lower bound on the uncertainty estimate (accuracy points).
    """

    probe_epochs: int = 1
    min_records: int = 8
    explore_every: int = 6
    band: float = 2.0
    min_dominators: int = 1
    ridge: float = 1e-3
    sigma_floor: float = 0.5

    def __post_init__(self) -> None:
        if self.probe_epochs < 0:
            raise ValidationError(f"probe_epochs must be >= 0, got {self.probe_epochs}")
        if self.min_records < 1:
            raise ValidationError(f"min_records must be >= 1, got {self.min_records}")
        if self.explore_every < 1:
            raise ValidationError(
                f"explore_every must be >= 1, got {self.explore_every}"
            )
        if self.band < 0.0:
            raise ValidationError(f"band must be >= 0, got {self.band}")
        if self.min_dominators < 1:
            raise ValidationError(
                f"min_dominators must be >= 1, got {self.min_dominators}"
            )
        if self.ridge < 0.0:
            raise ValidationError(f"ridge must be >= 0, got {self.ridge}")
        if self.sigma_floor < 0.0:
            raise ValidationError(f"sigma_floor must be >= 0, got {self.sigma_floor}")

    def to_dict(self) -> dict:
        return {
            "probe_epochs": self.probe_epochs,
            "min_records": self.min_records,
            "explore_every": self.explore_every,
            "band": self.band,
            "min_dominators": self.min_dominators,
            "ridge": self.ridge,
            "sigma_floor": self.sigma_floor,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SurrogateConfig":
        return cls(**payload)


class FitnessPredictor:
    """Online ridge model over every lineage observation so far.

    The search breeds in commit order (DESIGN §14), so when a candidate
    is scored the predictor has observed exactly the commits before its
    breed point — in live runs, on resume, and across backends alike —
    and a prediction is always made against everything observed.

    Observations live in one C-contiguous float64 matrix (and target
    vector) that doubles in capacity; a fit is handed the views
    ``X[:n]``, ``y[:n]``, which have the values, shape and strides of the
    array :func:`ridge_lstsq` would build from a list of rows, so the fit
    is the same to the last bit without rebuilding it.  The one fit kept
    is keyed by the observation count it was made at, so candidates
    scored between two commits share it.
    """

    def __init__(self, *, ridge: float = 1e-3, sigma_floor: float = 0.5) -> None:
        self.ridge = float(ridge)
        self.sigma_floor = float(sigma_floor)
        self._x = np.empty((0, 0))  # (capacity, k); the first n_observations rows are live
        self._y = np.empty(0)
        self.n_observations = 0
        self._last_fit: tuple[int, RidgeFit | None] = (0, None)  # (n_observations, its fit)

    def observe(self, features: Sequence[float], fitness: float) -> None:
        """Add one full-budget outcome."""
        row = np.asarray(features, dtype=float)
        n = self.n_observations
        if not n:
            self._x, self._y = np.empty((16, row.size)), np.empty(16)
        elif row.shape != self._x.shape[1:]:
            raise ValueError(
                f"feature rows must have {self._x.shape[1]} columns, got {row.shape}"
            )
        elif n == len(self._y):
            self._x = np.concatenate([self._x, np.empty_like(self._x)])
            self._y = np.concatenate([self._y, np.empty_like(self._y)])
        self._x[n] = row
        self._y[n] = fitness
        self.n_observations = n + 1

    def _fit(self) -> RidgeFit | None:
        n = self.n_observations
        if self._last_fit[0] != n:
            self._last_fit = (n, ridge_lstsq(self._x[:n], self._y[:n], ridge=self.ridge))
        return self._last_fit[1]

    def predict(self, features: Sequence[float]) -> tuple[float, float] | None:
        """Predicted ``(fitness, sigma)`` from every observation so far.

        ``None`` when no usable fit exists (no observations, or a
        degenerate system).
        """
        if self.n_observations == 0:
            return None
        fit = self._fit()
        if fit is None:
            return None
        row = list(features)
        mean = float(fit.predict(row))
        # predictive scale, not the bare training residual: the leverage
        # term inflates sigma for candidates outside the training cloud,
        # where in-sample RMSE badly understates the true error — exactly
        # the candidates a skip decision must not be confident about
        sigma = max(
            float(fit.rmse) * float(np.sqrt(1.0 + fit.leverage(row))),
            self.sigma_floor,
        )
        return mean, sigma

    def fingerprint(self) -> tuple:
        """Stable digest of the full observation log (for resume tests)."""
        n = self.n_observations
        return (
            n,
            tuple(self._y[:n].tolist()),
            tuple(map(tuple, self._x[:n].tolist())),
        )


class BudgetAllocator:
    """Scores bred candidates and assigns reduced budgets to losers.

    One instance lives in the orchestrating parent process (worker
    processes only ever see the resulting budget on their
    :class:`~repro.scheduler.procpool.EvalTask`).  The search calls
    :meth:`score` when a candidate is bred and the orchestrator calls
    :meth:`observe` as each evaluation commits.  A resumed run is the
    search run again, so both are called for restored models too, with
    their recorded outcomes: the allocator has no separate resume path.

    The skip rule is dominance-aware on the real objectives: a candidate
    is a predicted loser only when its *optimistic* estimate
    ``(predicted + band * sigma, flops)`` is Pareto-dominated by at least
    ``min_dominators`` current members.  A probed candidate's realized
    fitness can only come in at or below the optimistic estimate, so a
    probed model can never join the archive's Pareto front — which is
    what keeps the surrogate-on front identical to the off-mode front.
    """

    def __init__(
        self,
        settings: SurrogateConfig,
        *,
        max_epochs: int,
        flops_fn: Callable[[Genome], int],
    ) -> None:
        self.settings = settings
        self.max_epochs = int(max_epochs)
        self.flops_fn = flops_fn
        self.predictor = FitnessPredictor(
            ridge=settings.ridge, sigma_floor=settings.sigma_floor
        )
        self.n_scored = 0
        self.n_losers = 0

    # -- scoring (breed time) ---------------------------------------------

    def score(self, individual: Individual, members: Sequence[Individual]) -> None:
        """Score one bred candidate against ``members``, assigning budget.

        The search breeds in commit order, so the predictor has observed
        exactly the commits before this breed point: the prediction is a
        pure function of the logical clock, which is what makes it
        replayable.
        """
        flops = int(self.flops_fn(individual.genome))
        features = genome_features(individual.genome, flops)
        # below the feature count the ridge system interpolates: training
        # RMSE collapses to ~0 and the uncertainty band is meaningless,
        # so never score an underdetermined fit regardless of min_records
        needed = max(self.settings.min_records, len(features) + 2)
        if self.predictor.n_observations < needed:
            return
        prediction = self.predictor.predict(features)
        if prediction is None:
            return
        mean, sigma = prediction
        pool = [
            m
            for m in members
            if not m.quarantined and m.fitness is not None and m.flops is not None
        ]
        individual.predicted_fitness = mean
        individual.predicted_rank = 1 + sum(1 for m in pool if m.fitness > mean)
        self.n_scored += 1
        optimistic = mean + self.settings.band * sigma
        dominators = sum(
            1
            for m in pool
            if m.fitness >= optimistic
            and m.flops <= flops
            and (m.fitness > optimistic or m.flops < flops)
        )
        if dominators < self.settings.min_dominators:
            return
        self.n_losers += 1
        if self.n_losers % self.settings.explore_every == 0:
            individual.skip_reason = SKIP_EXPLORE
            return
        individual.skip_reason = SKIP_PROBE
        individual.budget_assigned = self.settings.probe_epochs
        if self.settings.probe_epochs == 0:
            # full skip: the prediction *is* the recorded outcome
            individual.fitness = mean
            individual.flops = flops

    # -- observation (commit time) ----------------------------------------

    def observe(self, individual: Individual) -> None:
        """Fold one committed evaluation into the predictor's training set."""
        # only clean full-budget measurements are ground truth; probes and
        # zero-budget skips would teach the model its own predictions
        if (
            individual.quarantined
            or individual.budget_assigned is not None
            or individual.fitness is None
            or individual.flops is None
            or individual.result is None
            or individual.result.epochs_trained <= 0
        ):
            return
        self.predictor.observe(
            genome_features(individual.genome, individual.flops), individual.fitness
        )
