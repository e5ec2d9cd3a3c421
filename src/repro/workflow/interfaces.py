"""User-facing workflow configuration (paper §2.6).

One document controls the three independently swappable pieces the
paper's user interface exposes: NAS settings (§2.6.1), the data path /
dataset definition (§2.6.2), and the prediction-engine settings
(§2.6.3).  ``WorkflowConfig`` round-trips to plain dicts, so it can be
driven from JSON files or command-line tooling.  Every run keys its
evaluations by the canonical genome and trains in float32.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.utils.validation import ValidationError, ensure_plain_name, load_fields
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

__all__ = ["WorkflowConfig"]

_MODES = ("real", "surrogate")
_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class WorkflowConfig:
    """Everything a user sets to launch an A4NN run.

    Where model state goes is not a setting: a real-mode run saves every
    trained epoch if and only if it is given a ``checkpoint_dir``
    (:class:`~repro.workflow.orchestrator.A4NNOrchestrator`,
    :func:`~repro.workflow.driver.run_workflow`).

    Attributes
    ----------
    nas:
        NSGA-Net settings (Table 2).
    engine:
        Prediction-engine settings (Table 1); ``None`` disables the
        engine, giving the standalone-NAS baseline.
    dataset:
        XFEL dataset definition (real mode) — also fixes the beam
        intensity in surrogate mode.
    mode:
        ``"real"`` (train NumPy CNNs) or ``"surrogate"`` (paper-scale
        synthetic curves).
    n_gpus:
        Pool sizes to simulate wall time for (paper: 1 and 4).
    seed:
        Root seed; the whole run is reproducible from it.
    run_id:
        Commons identifier (one directory name); derived when empty.
    n_workers:
        Concurrent evaluations per generation (1 = serial).  It also pins
        the default steady lag.  On the thread backend it does nothing
        else: sampled curves evaluate on the search thread, and real
        training at more than one worker needs ``backend="process"``.
    backend:
        Evaluation backend — ``"thread"`` (the default: every evaluation
        on the search thread) or ``"process"`` (worker processes started
        from the package, each mapping the dataset's one inherited
        memory file; Linux only).  Only the process backend can kill an
        evaluation, so only it takes ``faults.timeout_seconds``.  See
        DESIGN "Execution backends".
    sanitize:
        Attach the runtime numerical sanitizer to every trained network
        (real mode): non-finite losses/activations/gradients raise
        :class:`~repro.tooling.sanitizer.NumericalFault`, recorded into
        the model's lineage record.
    sanitize_writes:
        Attach the runtime write guard to every trained network (real
        mode): borrowed inter-layer tensors are flipped read-only around
        layer calls, so an aliasing write raises a ``guarded-write``
        :class:`~repro.tooling.sanitizer.NumericalFault`.  Flag-flips
        only — an untripped guarded run stays byte-identical.
    faults:
        Optional :class:`~repro.scheduler.faults.FaultPolicy`.  When
        set, evaluation failures (crashes, timeouts, sanitizer faults)
        are retried with re-seeded RNG children and, if unrecoverable,
        quarantined with penalized objectives — one bad genome costs one
        penalized individual, never the run.  ``None`` routes nothing:
        in barrier mode the whole generation settles first, then one
        error is raised as itself and several as one ``RuntimeError``
        listing every message; in steady mode an error is raised by the settle that delivers
        it.  A timeout requires ``backend="process"``: a thread cannot
        be killed.
    fault_injection:
        Optional deterministic fault-injection settings (test harness);
        requires ``faults`` so injected failures are routed rather than
        aborting the run.
    eval_cache:
        Memoize evaluations of duplicate (isomorphic) genomes: an
        evaluation is a pure function of the canonical genome, so a
        duplicate gets its leader's result.  Ignored while fault
        *injection* is active; :attr:`caches_evaluations` is what a run
        actually does.
    surrogate:
        Cross-architecture surrogate pre-ranking settings
        (:class:`~repro.nas.surrogate.SurrogateConfig`).  ``None`` (the
        default) keeps the allocator off entirely — runs are
        byte-identical to pre-surrogate behaviour.
    """

    nas: NSGANetConfig = field(default_factory=NSGANetConfig)
    engine: EngineConfig | None = field(default_factory=EngineConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    mode: str = "surrogate"
    n_gpus: tuple[int, ...] = (1, 4)
    seed: int = 42
    run_id: str = ""
    n_workers: int = 1
    backend: str = "thread"
    sanitize: bool = False
    sanitize_writes: bool = False
    faults: FaultPolicy | None = None
    fault_injection: FaultInjectionConfig | None = None
    eval_cache: bool = True
    surrogate: SurrogateConfig | None = None

    def __post_init__(self) -> None:
        if int(self.n_workers) < 1:
            raise ValidationError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.backend not in _BACKENDS:
            raise ValidationError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "thread" and self.faults and self.faults.timeout_seconds:
            raise ValidationError(
                "faults.timeout_seconds needs backend='process': the thread "
                "backend cannot stop an evaluation, so a timeout there would "
                "stop nothing"
            )
        if self.backend == "thread" and self.mode == "real" and int(self.n_workers) > 1:
            raise ValidationError(
                f"real-mode training on n_workers={self.n_workers} needs "
                "backend='process' (--backend process): the thread backend "
                "trains every model on the search thread"
            )
        if self.injecting and self.faults is None:
            raise ValidationError(
                "fault_injection without a fault policy would abort the run "
                "on the first injected fault; set faults=FaultPolicy(...)"
            )
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        ensure_plain_name(self.resolved_run_id(), "run_id")
        if not self.n_gpus or any(int(n) < 1 for n in self.n_gpus):
            raise ValidationError(f"n_gpus must be positive pool sizes, got {self.n_gpus}")
        if self.engine is not None and self.engine.e_pred != self.nas.max_epochs:
            # in the paper e_pred is the NAS budget; a different value is
            # a typo more often than not, so every mismatch is refused
            raise ValidationError(
                f"engine.e_pred ({self.engine.e_pred}) must equal "
                f"nas.max_epochs ({self.nas.max_epochs}); set engine.e_pred "
                f"to {self.nas.max_epochs}"
            )

    @property
    def intensity(self) -> BeamIntensity:
        return self.dataset.intensity

    @property
    def injecting(self) -> bool:
        """Whether fault injection can sabotage any evaluation attempt."""
        return self.fault_injection is not None and self.fault_injection.rate > 0

    @property
    def caches_evaluations(self) -> bool:
        """Whether the run memoizes evaluations: ``eval_cache`` unless injecting.

        The injection schedule is keyed per evaluation, so deduplicating
        evaluations would change which candidates fault.
        """
        return self.eval_cache and not self.injecting

    def resolved_run_id(self) -> str:
        """The commons run id, derived when not set explicitly."""
        if self.run_id:
            return self.run_id
        engine_tag = "a4nn" if self.engine is not None else "standalone"
        return f"{engine_tag}_{self.mode}_{self.intensity.label}_seed{self.seed}"

    def effective_nas(self) -> NSGANetConfig:
        """The NAS settings the run actually uses.

        Steady mode with ``steady_lag=None`` pins the lag to the worker
        count — the largest window the pool can keep busy.  The stored
        config records the original ``n_workers``, so a replay, or a
        wall-time simulation over published records, resolves the same lag.
        """
        nas = self.nas
        if nas.evolution == "steady" and nas.steady_lag is None:
            nas = replace(nas, steady_lag=self.n_workers)
        return nas

    def standalone(self) -> "WorkflowConfig":
        """A copy with the prediction engine disabled (baseline runs)."""
        return replace(self, engine=None, run_id="")

    def to_dict(self) -> dict:
        """The document: each section's own form, the intensity as its label."""
        document = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "dataset":
                value = {**asdict(value), "intensity": value.intensity.label}
            elif f.name == "n_gpus":
                value = list(value)
            elif hasattr(value, "to_dict"):
                value = value.to_dict()
            document[f.name] = value
        return document

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkflowConfig":
        """Load a document: a missing key takes its default, an unknown
        key at any level is refused.  A section given as ``{}`` takes
        all its defaults; ``null`` turns an optional section off and is
        refused for ``nas`` and ``dataset``, which have no off.  A leaf
        value of the wrong JSON type is refused too."""
        return cls(**load_fields(payload, cls, "workflow_config"))
