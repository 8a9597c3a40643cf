"""Statistical fault injection (SFI) campaigns (paper Section 4).

Each trial injects one transient fault — a bit flip in the destination
register of a uniformly-chosen dynamic instruction — into an execution
of the (Encore-instrumented) program, samples a detection latency from
the configured detector model, performs the Encore rollback when the
detector fires, and classifies the final outcome against a golden run.

Rollback is mediated by a :class:`~repro.runtime.supervisor.
RecoverySupervisor`: every attempt is charged per region, livelocked
recoveries (K rollbacks into the same region with no committed
progress) are bounded, an optional per-attempt step watchdog re-rolls
silently-stuck recoveries, and faults can be planned to strike *inside*
the recovery window (the double-fault model).  Outcomes form a
reason-coded escalation ladder:

* ``masked``       — the fault never affected the output (architectural
  masking) and no recovery was needed;
* ``recovered``    — the detector fired, rollback re-executed the
  region, and the output matches the golden run;
* ``recovered_after_retry`` — as ``recovered``, but one region needed
  more than one consecutive rollback attempt;
* ``detected_unrecoverable`` — execution trapped or hung without a
  usable recovery block;
* ``escape_unrecoverable`` — the detector fired after control had left
  the faulting region (no recovery pointer was live);
* ``livelock``     — recovery kept re-triggering its own fault; the
  supervisor stopped it after K attempts;
* ``double_fault_unrecoverable`` — a second fault striking during
  recovery defeated it;
* ``metadata_corrupt_detected`` — a fault struck Encore's *recovery
  metadata* (checkpoint log, register checkpoints, or the recovery
  pointer — see :mod:`repro.runtime.guarded_state`) and the metadata
  guard caught it at rollback time: graceful restart-required
  degradation instead of restoring garbage;
* ``metadata_corrupt_silent`` — corrupted recovery metadata was
  consumed by a rollback *undetected* and the run finished with a
  wrong result — the failure mode the guard exists to eliminate;
* ``cfe_detected_recovered`` — a control-flow fault (corrupted branch
  target or wrong-way branch) was detected — by the branch-signature
  monitor or by the wild-target trap — and rollback restored the
  correct result;
* ``cfe_wild_trap`` — a corrupted branch target left the legal label
  space and trapped, but no recovery pointer was live: restart
  required;
* ``cfe_silent``   — a control-flow fault (typically a wrong-way
  branch, whose edge is *legal* and therefore invisible to the
  signature monitor) completed with a wrong result undetected;
* ``sdc``          — silent data corruption: the run completed with a
  wrong result;
* ``infra_error``  — the trial never produced a verdict (worker crash
  or wall-clock timeout in the campaign engine).

These empirical outcomes validate the analytical coverage model of
Section 4.2 (see ``benchmarks/test_sfi_validation.py``).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.runtime.detection import DetectionModel
from repro.runtime.engine import ENGINES, engine_class, make_interpreter
from repro.runtime.guarded_state import GUARD_LEVELS, METADATA_TARGETS
from repro.runtime.interpreter import (
    ExecResult,
    ExecutionLimit,
    Interpreter,
    Snapshot,
    StepEvent,
    Trap,
    bitflip,
    take_snapshot,
)
from repro.runtime.memory import MachineMemory
from repro.runtime.predecode import FastInterpreter
from repro.runtime.replay import (
    REPLAY_CHUNK_DEFAULT,
    ChunkRecorder,
    ReplayDetector,
)
from repro.runtime.supervisor import (
    EscalateTrial,
    RecoverySupervisor,
    SupervisorPolicy,
)

OUTCOMES = (
    "masked",
    "recovered",
    "recovered_after_retry",
    "detected_unrecoverable",
    "escape_unrecoverable",
    "livelock",
    "double_fault_unrecoverable",
    "metadata_corrupt_detected",
    "metadata_corrupt_silent",
    "cfe_detected_recovered",
    "cfe_wild_trap",
    "cfe_silent",
    "sdc",
    "infra_error",
)

#: Outcomes in which the program ended with the correct result.
COVERED_OUTCOMES = (
    "masked", "recovered", "recovered_after_retry", "cfe_detected_recovered",
)

#: Control-flow fault kinds: ``target`` re-aims a branch at an
#: arbitrary block of the executing function (one extra selector slot
#: models a target outside the legal label space entirely — an
#: immediate wild-branch trap); ``wrong`` inverts a conditional
#: branch's decision, which follows a *legal* CFG edge and is therefore
#: invisible to signature-based detection by construction.
CF_KINDS = ("target", "wrong")

#: Control-flow error detectors: ``signature`` checks every executed
#: branch edge against the static CFG (the classic basic-block
#: signature monitor); ``off`` leaves CFE detection to traps alone.
CFE_DETECTORS = ("off", "signature")

#: Where a trial's detection events come from.  ``model`` samples a
#: latency from the analytical :class:`DetectionModel` (the paper's
#: assumption); ``replay`` measures it with chunked record + replay
#: (:mod:`repro.runtime.replay`) — same outcome taxonomy either way.
DETECTOR_BACKENDS = ("model", "replay")

ProgressHook = Callable[[int, int], None]

#: The four fault-count knobs, one per fault surface.
_FAULT_COUNTS = (
    "faults_per_trial",
    "recovery_faults_per_trial",
    "metadata_faults_per_trial",
    "cf_faults_per_trial",
)

#: Flat spec-JSON keys of the detector and policy fields.
_DETECTOR_JSON = (("dmax", "dmax"), ("detector_kind", "kind"),
                  ("detector_coverage", "coverage"))
_POLICY_JSON = (("max_attempts", "max_attempts"),
                ("step_budget", "attempt_step_budget"))


def _require_choice(what: str, value, choices) -> None:
    if value not in choices:
        raise ValueError(
            f"unknown {what} {value!r}; expected one of {tuple(choices)}"
        )


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Every knob that sets a campaign's plans or outcomes, declared once.

    One frozen value is the campaign's API argument (from
    :func:`run_campaign` down to each pool worker), its journal header
    (:meth:`header`), and the flat JSON a served campaign spec carries
    (:meth:`to_json`/:meth:`from_json`).  How much of the campaign runs
    and where — trial count, jobs, chunking, progress and result hooks,
    resumed trials, host externals — stays a per-call argument.

    ``faults_per_trial > 1`` leaves the paper's single-event-upset model
    for the multi-fault extension; ``recovery_faults_per_trial`` plans
    faults inside recovery windows (the double-fault model),
    ``metadata_faults_per_trial`` strikes Encore's own recovery metadata
    (defended at level ``metadata_guard``), and ``cf_faults_per_trial``
    opens the control-flow surface (armed against by ``cfe_detector``).
    ``detector_backend="replay"`` measures detection with chunked
    record + replay (chunk length ``replay_chunk_size``) instead of
    sampling ``detector``.  ``threads``/``quantum`` configure the
    cooperative scheduler, ``policy`` bounds the recovery escalation
    ladder, ``engine`` picks the interpreter and ``trial_timeout``
    (seconds) is the per-trial wall-clock guard.

    ``None`` for ``detector`` or ``policy`` means the default model.
    """

    function: str = "main"
    args: Tuple[int, ...] = ()
    output_objects: Tuple[str, ...] = ()
    seed: int = 0
    detector: DetectionModel = DetectionModel()
    faults_per_trial: int = 1
    recovery_faults_per_trial: int = 0
    metadata_faults_per_trial: int = 0
    cf_faults_per_trial: int = 0
    metadata_guard: str = "off"
    cfe_detector: str = "signature"
    detector_backend: str = "model"
    replay_chunk_size: Optional[int] = None
    threads: int = 1
    quantum: Optional[int] = None
    policy: SupervisorPolicy = SupervisorPolicy()
    engine: Optional[str] = None
    trial_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        normalized = {
            "args": tuple(self.args),
            "output_objects": tuple(self.output_objects),
            "detector": self.detector or DetectionModel(),
            "policy": self.policy or SupervisorPolicy(),
        }
        for name, value in normalized.items():
            object.__setattr__(self, name, value)
        counts = [getattr(self, name) for name in _FAULT_COUNTS]
        for name in ("seed", "threads", *_FAULT_COUNTS):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer")
        if min(counts) < 0:
            raise ValueError("fault counts must be non-negative")
        if not any(counts):
            raise ValueError(
                "a campaign needs at least one fault per trial: "
                f"{', '.join(_FAULT_COUNTS)} are all 0"
            )
        _require_choice("metadata guard", self.metadata_guard, GUARD_LEVELS)
        _require_choice("cfe detector", self.cfe_detector, CFE_DETECTORS)
        _require_choice("detector backend", self.detector_backend,
                        DETECTOR_BACKENDS)
        if self.engine is not None:
            _require_choice("engine", self.engine, ENGINES)
        if self.replay_chunk_size is not None and self.replay_chunk_size < 1:
            raise ValueError("replay_chunk_size must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.quantum is not None and self.quantum < 1:
            raise ValueError("quantum must be >= 1")
        if self.threads > 1 and self.detector_backend == "replay":
            raise ValueError(
                "the replay detection backend does not support "
                "multithreaded scheduling (threads > 1): replayed chunks "
                "cannot reconstruct scheduler state"
            )
        if self.trial_timeout is not None and self.trial_timeout < 0:
            raise ValueError("trial_timeout must be non-negative")

    # -- the journal header ---------------------------------------------

    def header(self, module: Module,
               incremental: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The identity of a campaign: everything that determines its
        plans, and the outcomes its journaled trials replay verbatim.

        Every key beyond the original format is emitted only when its
        feature is in use, so a campaign at the defaults writes a header
        byte-identical to the pre-feature format and old journals resume
        unchanged.  Because :func:`~repro.runtime.journal.validate_resume`
        compares the *union* of header keys, a journal written with a
        feature on refuses to resume with it off, and vice versa:

        * ``metadata_faults_per_trial``/``metadata_guard`` — each when
          non-default;
        * ``detector_backend``/``replay_chunk_size`` — a replay campaign
          (the chunk resolved to its default when unset);
        * ``cf_faults_per_trial``/``cfe_detector`` — the control-flow
          surface is open (the detector changes outcomes, not plans);
        * ``threads`` and ``quantum`` — each when set;
        * ``max_attempts``/``attempt_step_budget`` — the supervisor
          policy differs from :class:`SupervisorPolicy`'s defaults;
        * ``incremental`` — an incremental campaign's run metadata.

        Engine and trial timeout are deliberately absent: engines are
        bit-identical, and a timeout only turns overruns into
        ``infra_error``.
        """
        from repro.runtime.journal import module_fingerprint

        detector = self.detector
        meta: Dict[str, Any] = {
            "seed": self.seed,
            "function": self.function,
            "args": list(self.args),
            "faults_per_trial": self.faults_per_trial,
            "recovery_faults_per_trial": self.recovery_faults_per_trial,
            "detector": {
                "dmax": detector.dmax,
                "kind": detector.kind,
                "coverage": detector.coverage,
            },
            "module": module_fingerprint(module),
        }
        if self.metadata_faults_per_trial:
            meta["metadata_faults_per_trial"] = self.metadata_faults_per_trial
        if self.metadata_guard != "off":
            meta["metadata_guard"] = self.metadata_guard
        if self.detector_backend != "model":
            meta["detector_backend"] = self.detector_backend
            meta["replay_chunk_size"] = int(
                self.replay_chunk_size or REPLAY_CHUNK_DEFAULT
            )
        if self.cf_faults_per_trial:
            meta["cf_faults_per_trial"] = self.cf_faults_per_trial
            meta["cfe_detector"] = self.cfe_detector
        if self.threads != 1:
            meta["threads"] = self.threads
        if self.quantum is not None:
            meta["quantum"] = int(self.quantum)
        if self.policy != SupervisorPolicy():
            meta["max_attempts"] = self.policy.max_attempts
            meta["attempt_step_budget"] = self.policy.attempt_step_budget
        if incremental is not None:
            meta["incremental"] = incremental
        return meta

    # -- the served spec's flat JSON ------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The flat JSON ``POST /campaigns`` accepts for these knobs:
        the detector and policy spread into ``dmax``/``detector_kind``/
        ``detector_coverage`` and ``max_attempts``/``step_budget``."""
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name not in ("detector", "policy")
        }
        data["args"] = list(self.args)
        data["output_objects"] = list(self.output_objects)
        for flat, attr in _DETECTOR_JSON:
            data[flat] = getattr(self.detector, attr)
        for flat, attr in _POLICY_JSON:
            data[flat] = getattr(self.policy, attr)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CampaignConfig":
        """Inverse of :meth:`to_json`; absent keys take their defaults.
        Raises ``ValueError``/``TypeError`` on a bad or unknown key."""
        knobs = dict(data)
        detector = {attr: knobs.pop(flat) for flat, attr in _DETECTOR_JSON
                    if flat in knobs}
        policy = {attr: knobs.pop(flat) for flat, attr in _POLICY_JSON
                  if flat in knobs}
        return cls(detector=DetectionModel(**detector),
                   policy=SupervisorPolicy(**policy), **knobs)

    # -- the campaign's fixed points ------------------------------------

    def golden(self, module: Module, externals=None,
               memory_image: Optional[MachineMemory] = None,
               record: bool = True) -> ExecResult:
        """This campaign's fault-free reference run, under the trials'
        metadata guard.

        When the trials fast-forward from snapshots (fast engine, one
        thread, model detector) it also carries up to
        :data:`PREFIX_SNAPSHOTS` evenly spaced snapshots, which
        :func:`run_trial` resumes each trial from.  ``record=False``
        skips them where no trial runs from this golden (it only sizes
        the plans).
        """
        return golden_run(
            module, self.function, self.args, self.output_objects,
            externals=externals, engine=self.engine,
            memory_image=memory_image, threads=self.threads,
            quantum=self.quantum, metadata_guard=self.metadata_guard,
            snapshots=PREFIX_SNAPSHOTS if record and _resumes(self) else 0,
        )

    def plans(self, trials: int, golden_events: int) -> List["FaultPlan"]:
        """The first ``trials`` fault plans of this campaign."""
        return plan_campaign(
            self.seed, trials, golden_events, self.detector,
            *(getattr(self, name) for name in _FAULT_COUNTS),
        )


#: Snapshots a campaign's golden run keeps for its trials to resume
#: from (see :meth:`CampaignConfig.golden`).
PREFIX_SNAPSHOTS = 64

#: Events between the first two golden snapshots; the spacing doubles
#: whenever keeping another would exceed the snapshot count.
_FIRST_SPACING = 16


def _resumes(config: CampaignConfig) -> bool:
    """Whether this campaign's trials resume from golden snapshots:
    only fast-forwarded trials (the fast engine, no replay backend)
    of single-threaded runs (snapshots hold no scheduler state)."""
    return (
        config.threads == 1
        and config.detector_backend == "model"
        and issubclass(engine_class(config.engine), FastInterpreter)
    )


def campaign_config(config: Optional[CampaignConfig] = None,
                    **knobs) -> CampaignConfig:
    """The config a call names: ``config`` (default
    :class:`CampaignConfig`) with keyword ``knobs`` overriding fields.

    The one place keyword-style calls — ``run_campaign(module,
    seed=3, threads=2)`` — become a config; passing a config alone
    returns it untouched, so the trial path never re-validates.
    """
    if config is None:
        return CampaignConfig(**knobs)
    return dataclasses.replace(config, **knobs) if knobs else config


class TrialTimeout(Exception):
    """A trial exceeded its wall-clock budget (campaign-engine guard)."""


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """Key an independent RNG substream for one trial.

    Hashing ``(seed, trial_index)`` through SHA-256 decorrelates the
    substreams and — unlike ``hash()`` — is stable across processes,
    interpreter versions, and ``PYTHONHASHSEED``, so a trial's fault
    plan is a pure function of the campaign seed and its index.  This
    is what makes parallel campaigns bit-identical to serial ones: any
    worker, handed any chunk, derives exactly the faults the serial
    loop would have.
    """
    digest = hashlib.sha256(f"sfi:{seed}:{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """The complete randomness of one trial, fixed before execution.

    ``sites``/``bits``/``latencies`` are equal-length tuples; length 1
    is the paper's single-event-upset model, longer is the multi-fault
    extension.  ``recovery_sites``/``recovery_bits``/
    ``recovery_latencies`` describe the double-fault model: each entry
    is a fault armed *relative to a rollback* — it strikes that many
    dynamic instructions after the n-th recovery attempt begins.  Plans
    are immutable and picklable so they can be chunked across worker
    processes.
    """

    trial_index: int
    sites: Tuple[int, ...]
    bits: Tuple[int, ...]
    latencies: Tuple[Optional[int], ...]
    recovery_sites: Tuple[int, ...] = ()
    recovery_bits: Tuple[int, ...] = ()
    recovery_latencies: Tuple[Optional[int], ...] = ()
    # Metadata fault surface (recovery-state corruption model): each
    # fault strikes the structure named by its target (see
    # guarded_state.METADATA_TARGETS) at a dynamic-instruction site,
    # picking a live entry with ``selector`` and flipping ``bit``.
    meta_sites: Tuple[int, ...] = ()
    meta_targets: Tuple[str, ...] = ()
    meta_selectors: Tuple[int, ...] = ()
    meta_bits: Tuple[int, ...] = ()
    # Control-flow fault surface: each fault arms at dynamic site
    # ``cf_sites[i]`` and strikes the next branch executed at or after
    # it, corrupting it per ``cf_kinds[i]`` (see CF_KINDS);
    # ``cf_selectors[i]`` picks the bogus target for ``target`` kinds.
    cf_sites: Tuple[int, ...] = ()
    cf_kinds: Tuple[str, ...] = ()
    cf_selectors: Tuple[int, ...] = ()

    @property
    def single(self) -> bool:
        return len(self.sites) == 1

    @property
    def recovery_faults(self) -> Tuple[Tuple[int, int, Optional[int]], ...]:
        """The planned recovery-window faults as (offset, bit, latency)."""
        return tuple(
            zip(self.recovery_sites, self.recovery_bits, self.recovery_latencies)
        )

    @property
    def metadata_faults(self) -> Tuple[Tuple[int, str, int, int], ...]:
        """The planned metadata faults as (site, target, selector, bit)."""
        return tuple(
            zip(self.meta_sites, self.meta_targets,
                self.meta_selectors, self.meta_bits)
        )

    @property
    def control_faults(self) -> Tuple[Tuple[int, str, int], ...]:
        """The planned control-flow faults as (site, kind, selector)."""
        return tuple(zip(self.cf_sites, self.cf_kinds, self.cf_selectors))


def plan_trial(
    seed: int,
    trial_index: int,
    golden_events: int,
    detector: DetectionModel,
    faults_per_trial: int = 1,
    recovery_faults_per_trial: int = 0,
    metadata_faults_per_trial: int = 0,
    cf_faults_per_trial: int = 0,
    site_dist=None,
    rng_seed: Optional[int] = None,
) -> FaultPlan:
    """Derive one trial's fault plan from its own RNG substream.

    The recovery-window draws happen *after* the primary draws, the
    metadata draws after those, and the control-flow draws last, so a
    campaign with every extension count at 0 produces bit-identical
    plans to one planned before any extension existed.

    ``site_dist`` replaces the uniform site/bit draws with a pruned
    importance-sampling distribution (any object with a
    ``draw(rng) -> (site, bit)`` method — see
    :class:`repro.incremental.bitmask.SectionSampler`); it requires the
    single-event-upset configuration, and ``rng_seed`` then keys the
    substream directly (per-section discipline) instead of the global
    ``(seed, trial_index)`` hash.
    """
    rng = random.Random(
        derive_trial_seed(seed, trial_index) if rng_seed is None else rng_seed
    )
    if site_dist is not None:
        if (faults_per_trial != 1 or recovery_faults_per_trial
                or metadata_faults_per_trial or cf_faults_per_trial):
            raise ValueError(
                "site_dist requires the single-event-upset configuration "
                "(one primary fault, no extension surfaces)"
            )
        site, bit = site_dist.draw(rng)
        latency = detector.sample_latency(rng)
        return FaultPlan(trial_index, (site,), (bit,), (latency,))
    sites = sorted(
        rng.randrange(max(golden_events, 1)) for _ in range(faults_per_trial)
    )
    bits = [rng.randrange(0, 32) for _ in range(faults_per_trial)]
    latencies = [detector.sample_latency(rng) for _ in range(faults_per_trial)]
    rec_sites = [rng.randrange(1, 33) for _ in range(recovery_faults_per_trial)]
    rec_bits = [rng.randrange(0, 32) for _ in range(recovery_faults_per_trial)]
    rec_latencies = [
        detector.sample_latency(rng) for _ in range(recovery_faults_per_trial)
    ]
    meta_sites = sorted(
        rng.randrange(max(golden_events, 1))
        for _ in range(metadata_faults_per_trial)
    )
    meta_targets = [
        METADATA_TARGETS[rng.randrange(len(METADATA_TARGETS))]
        for _ in range(metadata_faults_per_trial)
    ]
    meta_selectors = [
        rng.randrange(64) for _ in range(metadata_faults_per_trial)
    ]
    meta_bits = [rng.randrange(0, 64) for _ in range(metadata_faults_per_trial)]
    cf_sites = sorted(
        rng.randrange(max(golden_events, 1)) for _ in range(cf_faults_per_trial)
    )
    cf_kinds = [
        CF_KINDS[rng.randrange(len(CF_KINDS))] for _ in range(cf_faults_per_trial)
    ]
    cf_selectors = [rng.randrange(64) for _ in range(cf_faults_per_trial)]
    return FaultPlan(
        trial_index,
        tuple(sites),
        tuple(bits),
        tuple(latencies),
        tuple(rec_sites),
        tuple(rec_bits),
        tuple(rec_latencies),
        tuple(meta_sites),
        tuple(meta_targets),
        tuple(meta_selectors),
        tuple(meta_bits),
        tuple(cf_sites),
        tuple(cf_kinds),
        tuple(cf_selectors),
    )


def plan_campaign(
    seed: int,
    trials: int,
    golden_events: int,
    detector: DetectionModel,
    faults_per_trial: int = 1,
    recovery_faults_per_trial: int = 0,
    metadata_faults_per_trial: int = 0,
    cf_faults_per_trial: int = 0,
) -> List[FaultPlan]:
    """All fault plans of a campaign, in trial order."""
    return [
        plan_trial(
            seed, index, golden_events, detector,
            faults_per_trial, recovery_faults_per_trial,
            metadata_faults_per_trial, cf_faults_per_trial,
        )
        for index in range(trials)
    ]


@dataclasses.dataclass
class TrialResult:
    """One SFI trial."""

    outcome: str
    fault_event: int
    detect_latency: Optional[int]
    recovery_attempts: int
    trapped: bool = False
    hang: bool = False
    #: Extra dynamic instructions executed relative to the golden run —
    #: the re-execution "wasted work" of rollback recovery (paper §2.1).
    wasted_work: int = 0
    #: Consecutive rollbacks the worst region needed beyond the first
    #: (0 = every recovery committed on its first attempt).
    retries: int = 0
    #: Faults injected inside the recovery window (double-fault model).
    double_faults: int = 0
    #: Faults that landed in live recovery metadata (checkpoint log,
    #: register checkpoints, or the recovery pointer).
    metadata_faults: int = 0
    #: Corrupted metadata entries repaired from a shadow copy
    #: (``--guard dup`` only).
    metadata_repairs: int = 0
    #: Divergent chunks the replay detector flagged (replay backend
    #: only; ``detect_latency`` is then the *measured* latency of the
    #: first divergence, not a sampled one).
    replay_divergences: int = 0
    #: Dynamic instructions re-executed by replay checks (replay
    #: backend only) — the detector-side overhead of this trial.
    replay_overhead: int = 0
    #: Control-flow faults that actually struck a branch (a planned
    #: strike past the end of the dynamic path is dead time).
    control_faults: int = 0
    #: Illegal branch edges flagged by the signature monitor.
    cfe_detections: int = 0
    #: The (function, region) section the primary fault struck —
    #: attributed by the incremental subsystem (None outside it, and
    #: then omitted from journals for byte-stability).
    section: Optional[str] = None


def infra_error_trial() -> TrialResult:
    """The placeholder verdict for a trial the engine could not finish
    (worker crash after all pool retries, or wall-clock timeout)."""
    return TrialResult(
        outcome="infra_error", fault_event=-1, detect_latency=None,
        recovery_attempts=0,
    )


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-campaign; the completed prefix survives.

    Raised instead of a bare :class:`KeyboardInterrupt` so the CLI can
    flush the journal, report partial results, and print a resume hint
    rather than dying with a traceback.  ``results`` holds every trial
    that finished before the signal (keyed by trial index — already
    streamed to ``on_result``, so a journal has them on disk), and
    ``total`` is the trial count the campaign was aiming for.
    """

    def __init__(self, results: Dict[int, TrialResult], total: int) -> None:
        super().__init__()
        self.results = dict(results)
        self.total = total

    @property
    def done(self) -> int:
        return len(self.results)


@dataclasses.dataclass
class CampaignResult:
    """Aggregated SFI campaign statistics.

    ``elapsed``/``jobs``/``worker_trials`` describe how the campaign
    was executed (wall-clock seconds, worker count, trials per worker);
    they are reporting metadata only — the trial list itself is a pure
    function of ``(module, config, trials)`` regardless of parallelism.
    ``pool_restarts`` counts worker pools rebuilt after a crash; any
    non-zero value (or any ``infra_error`` trial) marks a campaign that
    needed the resilience machinery.
    """

    trials: List[TrialResult]
    elapsed: float = 0.0
    jobs: int = 1
    worker_trials: Dict[str, int] = dataclasses.field(default_factory=dict)
    pool_restarts: int = 0
    resumed_trials: int = 0
    #: Share of the fault-site mass composed from a persisted section
    #: store instead of executed (incremental campaigns; 0.0 otherwise).
    composed_fraction: float = 0.0

    def count(self, outcome: str) -> int:
        return sum(1 for t in self.trials if t.outcome == outcome)

    def counts(self) -> Dict[str, int]:
        """Outcome tallies (all classes, zero-filled)."""
        return {outcome: self.count(outcome) for outcome in OUTCOMES}

    def fraction(self, outcome: str) -> float:
        if not self.trials:
            return 0.0
        return self.count(outcome) / len(self.trials)

    @property
    def covered_fraction(self) -> float:
        """Masked plus recovered (with or without retries): the faults
        the system tolerates."""
        return sum(self.fraction(outcome) for outcome in COVERED_OUTCOMES)

    @property
    def infra_errors(self) -> int:
        """Trials that never produced a verdict (crash/timeout)."""
        return self.count("infra_error")

    @property
    def throughput(self) -> float:
        """Completed trials per wall-clock second (0.0 if untimed)."""
        if self.elapsed <= 0.0:
            return 0.0
        return len(self.trials) / self.elapsed

    @property
    def mean_wasted_work(self) -> float:
        """Mean re-executed instructions across recovered trials."""
        recovered = [
            t for t in self.trials
            if t.outcome in ("recovered", "recovered_after_retry")
            and t.recovery_attempts > 0
        ]
        if not recovered:
            return 0.0
        return sum(t.wasted_work for t in recovered) / len(recovered)

    def coverage_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Covered-fraction estimate and normal-approximation CI
        half-width.  Incremental campaigns override this with the
        stratified Horvitz–Thompson estimator."""
        p = self.covered_fraction
        n = len(self.trials)
        if n <= 0:
            return 0.0, 0.0
        return p, z * (p * (1.0 - p) / n) ** 0.5

    def summary(self, extended: bool = False) -> Dict[str, float]:
        """Outcome fractions; ``extended`` adds execution statistics.

        The default (outcome fractions only, summing to 1.0 on a
        non-empty campaign) is deterministic for a given seed; the
        extended block adds wall-clock figures that are not.
        """
        base: Dict[str, float] = {
            outcome: self.fraction(outcome) for outcome in OUTCOMES
        }
        if self.composed_fraction:
            base["composed_fraction"] = self.composed_fraction
        if extended:
            base["trials"] = float(len(self.trials))
            base["jobs"] = float(self.jobs)
            base["elapsed_s"] = self.elapsed
            base["trials_per_sec"] = self.throughput
            base["pool_restarts"] = float(self.pool_restarts)
            base["resumed_trials"] = float(self.resumed_trials)
            for worker, count in sorted(self.worker_trials.items()):
                base[f"trials[{worker}]"] = float(count)
        return base


class _FaultInjector:
    """Post-step hook driving one trial: inject fault(s), then detect.

    ``faults`` is a list of ``(site, bit, latency)`` triples; the paper's
    single-event-upset model uses one, and the multi-fault extension
    study injects several.  Each fault arms its own detection deadline;
    when a deadline passes, the rollback decision is delegated to the
    trial's :class:`RecoverySupervisor`, which also gets a per-step
    callback for progress tracking, its watchdog, and the recovery-window
    (double-fault) injections.
    """

    def __init__(
        self,
        faults,
        supervisor: RecoverySupervisor,
        metadata_faults: Sequence[Tuple[int, str, int, int]] = (),
    ) -> None:
        self.pending = sorted(faults, key=lambda f: f[0])
        self.supervisor = supervisor
        self.fault_events: List[int] = []
        #: Faults that actually struck: (site, bit, latency, event index).
        self.injected: List[Tuple[int, int, Optional[int], int]] = []
        self.deadlines: List[int] = []
        #: Planned metadata strikes as (site, target, selector, bit).
        self.meta_pending = sorted(metadata_faults, key=lambda f: f[0])
        #: Metadata faults that found no live structure (dead metadata
        #: time — architecturally masked, like a dead-register strike).
        self.meta_masked = 0

    @property
    def fault_event(self) -> Optional[int]:
        return self.fault_events[0] if self.fault_events else None

    @property
    def detect_latency(self) -> Optional[int]:
        """The latency of the first fault that actually struck.

        ``None`` when no planned fault was reached (the injection hit
        dead time) or the detector missed the first one that was.
        """
        return self.injected[0][2] if self.injected else None

    @property
    def wake(self) -> Optional[int]:
        """The first event index at which this hook has work of its own:
        the earliest pending fault site or detector deadline (None once
        every fault struck and every deadline fired).  Before it, a
        step only forwards to the supervisor."""
        due = [queue[0][0] for queue in (self.pending, self.meta_pending)
               if queue]
        due.extend(self.deadlines[:1])
        return min(due) if due else None

    def __call__(self, interp: Interpreter, event: StepEvent) -> None:
        while self.meta_pending and event.index >= self.meta_pending[0][0]:
            # Metadata faults strike storage, not a destination
            # register: they fire at their planned site regardless of
            # what instruction executed there.
            _site, target, selector, bit = self.meta_pending.pop(0)
            if not interp.guard.inject_fault(interp, target, selector, bit):
                self.meta_masked += 1
        if self.pending and event.index >= self.pending[0][0]:
            if event.inst.defs():
                site, bit, latency = self.pending.pop(0)
                dest = event.inst.defs()[0]
                frame = interp.current_frame
                frame.regs[dest] = bitflip(frame.regs.get(dest, 0), bit)
                self.fault_events.append(event.index)
                self.injected.append((site, bit, latency, event.index))
                if latency is not None:
                    bisect.insort(self.deadlines, event.index + latency)
                # Detection never fires on the injection step itself —
                # even a zero-latency detector sees the corruption one
                # dynamic instruction later.
                self.supervisor.on_step(interp, event)
                return
        while self.deadlines and event.index >= self.deadlines[0]:
            self.deadlines.pop(0)
            self.supervisor.on_detection(interp, event.index)
        self.supervisor.on_step(interp, event)


class _ControlFlowInjector:
    """Post-step hook for the control-flow fault surface.

    Each planned fault arms at its dynamic site and strikes the next
    branch executed at or after it — ``wrong`` kinds wait for a
    conditional ``br`` (an unconditional ``jmp`` has no wrong way),
    ``target`` kinds strike any branch.  Corruption happens *after* the
    branch committed its legal transfer, mirroring a transient in the
    branch-target path: the frame's current block is overwritten with
    the bogus label (or, for the wild selector slot, execution traps
    immediately — the fetch from a garbage address).

    When ``detector="signature"`` the hook doubles as the classic
    basic-block signature monitor: after every branch it checks the
    realized edge against the instruction's static successors and
    reports an illegal edge to the supervisor at once (latency 0).
    A wrong-way branch follows a legal edge and sails through — the
    honesty gap the ``cfe_silent`` outcome measures.
    """

    def __init__(
        self,
        faults: Sequence[Tuple[int, str, int]],
        detector: str,
        supervisor: RecoverySupervisor,
    ) -> None:
        if detector not in CFE_DETECTORS:
            raise ValueError(
                f"unknown cfe detector {detector!r}; "
                f"expected one of {CFE_DETECTORS}"
            )
        for _site, kind, _sel in faults:
            if kind not in CF_KINDS:
                raise ValueError(
                    f"unknown control-fault kind {kind!r}; "
                    f"expected one of {CF_KINDS}"
                )
        self.pending = sorted(faults, key=lambda f: f[0])
        self.detector = detector
        self.supervisor = supervisor
        #: Faults that struck: (event index, kind).
        self.injected: List[Tuple[int, str]] = []
        self.detections = 0
        self.wild = False

    @property
    def wake(self) -> Optional[int]:
        """The earliest pending strike site (None once every fault
        struck).  The signature monitor needs no other steps: only a
        strike realizes an illegal edge, and the strike and its check
        share one step."""
        return self.pending[0][0] if self.pending else None

    def __call__(self, interp: Interpreter, event: StepEvent) -> None:
        inst = event.inst
        if inst.opcode not in ("br", "jmp"):
            return
        frames = interp.frames
        if not frames or frames[-1].id != event.frame_id:
            return
        frame = frames[-1]
        if self.pending and event.index >= self.pending[0][0]:
            kind = self.pending[0][1]
            if kind == "target" or inst.opcode == "br":
                _site, kind, selector = self.pending.pop(0)
                self._strike(interp, frame, event, kind, selector)
        if self.detector == "signature" and frame.block not in inst.successors():
            self.detections += 1
            self.supervisor.on_detection(interp, event.index)

    def _strike(self, interp, frame, event, kind: str, selector: int) -> None:
        self.injected.append((event.index, kind))
        if kind == "wrong":
            inst = event.inst
            frame.block = (
                inst.if_false if frame.block == inst.if_true else inst.if_true
            )
            return
        labels = sorted(frame.func.blocks)
        choice = selector % (len(labels) + 1)
        if choice == len(labels):
            # The extra selector slot: a target outside the function's
            # label space entirely — an immediately-trapping wild branch.
            self.wild = True
            raise Trap("cfe: wild branch target", interp.events)
        frame.block = labels[choice]


def golden_run(
    module: Module,
    function: str = "main",
    args: Sequence = (),
    output_objects: Sequence[str] = (),
    max_steps: int = 5_000_000,
    externals=None,
    engine: Optional[str] = None,
    memory_image: Optional[MachineMemory] = None,
    threads: int = 1,
    quantum: Optional[int] = None,
    metadata_guard: str = "off",
    snapshots: int = 0,
) -> ExecResult:
    """The fault-free reference execution trials are classified against.

    ``engine`` selects the interpreter (see
    :mod:`repro.runtime.engine`); both engines produce bit-identical
    results, so trial verdicts never depend on the choice.
    ``memory_image`` shares a pristine memory snapshot the run clones
    instead of re-materializing every global.  ``threads``/``quantum``
    configure the cooperative scheduler for multithreaded workloads
    (``threads=1``, the default, traps on any ``spawn``).
    ``metadata_guard`` only changes the costs (guard work is
    instrumentation cost), never events, output or value.

    ``snapshots > 0`` records up to that many evenly spaced interpreter
    snapshots (:class:`~repro.runtime.interpreter.Snapshot`) into the
    result's ``snapshots``: the run stops on a step budget every
    ``spacing`` events (exact on both engines) and is captured there;
    when one more would exceed the count, every other one is dropped
    and the spacing doubles.  The result is otherwise the unrecorded
    one.
    """
    interp = make_interpreter(
        module, engine=engine, max_steps=max_steps, externals=externals,
        memory_image=memory_image, max_threads=threads, quantum=quantum,
        metadata_guard=metadata_guard,
    )
    start = functools.partial(interp.run, function, args,
                              output_objects=output_objects)
    if not snapshots:
        return start()
    kept: List[Snapshot] = []
    spacing = _FIRST_SPACING
    while True:
        interp.max_steps = min(
            max_steps, (interp.events // spacing + 1) * spacing
        )
        try:
            result = start()
            break
        except ExecutionLimit:
            if interp.max_steps >= max_steps:
                raise
        kept.append(take_snapshot(interp))
        if len(kept) > snapshots:
            kept = kept[1::2]
            spacing *= 2
        start = functools.partial(interp.resume,
                                  output_objects=output_objects)
    return dataclasses.replace(result, snapshots=tuple(kept))


def _resume_point(golden: ExecResult, stop: Optional[int],
                  metadata_guard: str) -> Optional[Snapshot]:
    """The latest of ``golden``'s snapshots at or before event ``stop``
    (None: no usable one, the trial starts at event 0)."""
    snapshots = golden.snapshots
    if stop is not None:
        snapshots = snapshots[:bisect.bisect_right(
            snapshots, stop, key=lambda snap: snap.events,
        )]
    if not snapshots or snapshots[-1].guard.level != metadata_guard:
        return None
    return snapshots[-1]


def _next_stop(parts) -> Optional[int]:
    """The first event index at which any of a trial's hooks has work
    (None: none until a trap starts a rollback)."""
    wakes = [wake for wake in (part.wake for part in parts)
             if wake is not None]
    return min(wakes) if wakes else None


def run_trial(
    module: Module,
    golden: ExecResult,
    site: int,
    bit: int,
    latency: Optional[int],
    config: Optional[CampaignConfig] = None,
    *,
    externals=None,
    memory_image: Optional[MachineMemory] = None,
    max_steps_factor: int = 4,
    recovery_faults: Sequence[Tuple[int, int, Optional[int]]] = (),
    metadata_faults: Sequence[Tuple[int, str, int, int]] = (),
    control_faults: Sequence[Tuple[int, str, int]] = (),
    **knobs,
) -> TrialResult:
    """Execute one fault-injection trial and classify its outcome.

    ``site``/``bit``/``latency`` may be scalars (one fault, the paper's
    model) or equal-length lists for the multi-fault extension.
    ``recovery_faults`` are the double-fault model's recovery-window
    strikes, ``metadata_faults`` strike Encore's own recovery state
    (defended at the config's ``metadata_guard``), and
    ``control_faults`` are planned control-flow strikes as ``(site,
    kind, selector)`` triples (see :data:`CF_KINDS`).  ``config`` (or
    keyword ``knobs`` naming its fields) supplies everything else; its
    scheduler settings must match the golden run's or verdicts are
    meaningless.  ``memory_image`` shares a pristine memory snapshot
    across trials of one campaign.

    Under ``detector_backend="replay"`` planned latencies are ignored
    (the fault sites and bits stay identical, so the two backends are
    head-to-head comparable at the same seed) and detection fires when
    a chunk's replay digest diverges, with the *measured* latency
    landing in ``detect_latency``.

    On the fast engine a trial runs decoded and hook-free except where
    its hooks have work: from each planned fault site until the fault
    strikes, at each detector deadline, and while a rollback is
    uncommitted.  Each hook-free stretch ends on a step budget at the
    next such event, and a trap that starts a rollback re-installs the
    hooks.  The result equals fully hooked execution, which the
    reference engine and the replay backend always use.
    """
    if config is None or knobs:
        config = campaign_config(config, **knobs)
    if isinstance(site, int):
        faults = [(site, bit, latency)]
    else:
        faults = list(zip(site, bit, latency))
    recovery_faults = tuple(recovery_faults)
    replay = config.detector_backend == "replay"
    if replay:
        # Replay detects by divergence, never by deadline: drop every
        # sampled latency but keep the sites/bits draws untouched.
        faults = [(s, b, None) for s, b, _ in faults]
        recovery_faults = tuple((o, b, None) for o, b, _ in recovery_faults)
    supervisor = RecoverySupervisor(config.policy, recovery_faults)
    injector = _FaultInjector(faults, supervisor, metadata_faults)
    cf_injector: Optional[_ControlFlowInjector] = None
    recorder: Optional[ChunkRecorder] = None
    pre_step = None
    post_step = injector
    if control_faults:
        cf_injector = _ControlFlowInjector(control_faults,
                                           config.cfe_detector, supervisor)

        def post_step(interp, event, _inj=injector, _cf=cf_injector):
            # Register/metadata surface first, then the control surface
            # — a branch's destination register is corrupted before its
            # realized edge is corrupted or checked.
            _inj(interp, event)
            _cf(interp, event)

    if replay:
        recorder = ChunkRecorder(
            config.replay_chunk_size or REPLAY_CHUNK_DEFAULT,
            detector=ReplayDetector(module, externals=externals),
            supervisor=supervisor,
            injector=injector,
        )
        pre_step = recorder.on_pre_step

        def post_step(interp, event, _inj=post_step, _rec=recorder):
            # Injection first, so a corrupted destination register is
            # digested on its own step — guaranteeing the divergence
            # lands in the faulting chunk (latency <= chunk size).
            _inj(interp, event)
            _rec.on_post_step(interp, event)

    max_steps = max(golden.events * max_steps_factor, 10_000)
    parts = [injector, supervisor]
    if cf_injector is not None:
        parts.append(cf_injector)
    # Fast-forward (see "Trial phases" in docs/sfi_campaigns.md): on the
    # fast engine the trial starts from the latest golden snapshot
    # before its first planned event, and every step before the hooks'
    # next work runs decoded and hook-free, under a step budget that
    # stops at that work.  The reference engine stays fully hooked from
    # event 0 as the specification, and replay digests every step.
    snapshot = None
    if _resumes(config):
        snapshot = _resume_point(golden, _next_stop(parts),
                                 config.metadata_guard)
    interp = make_interpreter(
        module, engine=config.engine, max_steps=max_steps,
        pre_step=pre_step, post_step=post_step, externals=externals,
        metadata_guard=config.metadata_guard, memory_image=memory_image,
        max_threads=config.threads, quantum=config.quantum,
        snapshot=snapshot,
    )
    if recorder is None and isinstance(interp, FastInterpreter):

        def sleep(after: int) -> None:
            """Drop the hooks until the parts' next work, unless that is
            the step after ``after``."""
            stop = _next_stop(parts)
            if stop is None or stop > after + 1:
                interp.post_step = None
                interp.max_steps = (max_steps if stop is None
                                    else min(stop, max_steps))

        def post_step(interp, event, _hook=post_step):
            _hook(interp, event)
            sleep(event.index)

        interp.post_step = post_step
        sleep(-1)
    trapped = False
    hang = False
    escalation: Optional[str] = None
    result: Optional[ExecResult] = None

    def resume() -> ExecResult:
        return interp.resume(output_objects=config.output_objects)

    def drive(start: Callable[[], ExecResult]) -> ExecResult:
        """Run to completion through the trial's planned stops.

        A step budget below ``max_steps`` ends a hook-free stretch at
        the next event with work.  The fast engine stops there with
        exact counters and a resumable ``frame.ip``, even between the
        halves of a fused pair, so re-installing the hook and resuming
        shows that event to the hook exactly as a run hooked throughout
        would.  Only the real budget (a hang) propagates.
        """
        while True:
            try:
                return start()
            except ExecutionLimit:
                if interp.max_steps >= max_steps:
                    raise
            interp.max_steps = max_steps
            interp.post_step = post_step
            start = resume

    try:
        result = drive(resume if snapshot is not None else lambda: interp.run(
            config.function, config.args,
            output_objects=config.output_objects,
        ))
    except EscalateTrial as esc:
        escalation = esc.reason
    except Trap:
        # A symptom the detector sees immediately: roll back under
        # supervision, and keep retrying while the supervisor allows —
        # a recovery that re-traps is exactly the livelock shape the
        # attempt bound exists for.
        trapped = True
        try:
            while True:
                if recorder is not None:
                    # The trap redirected control outside any step; the
                    # open chunk can never replay — drop it.
                    recorder.resync()
                if not supervisor.on_trap(interp, interp.events):
                    break  # no live recovery pointer: restart required
                # A rollback re-opens the window: the watchdog, livelock
                # streaks and recovery-window faults see every step.
                interp.post_step = post_step
                try:
                    result = drive(resume)
                    break
                except Trap:
                    continue
                except ExecutionLimit:
                    hang = True
                    break
        except EscalateTrial as esc:
            escalation = esc.reason
    except ExecutionLimit:
        hang = True

    if recorder is not None and result is not None:
        # Check the final partial chunk: a divergence here is detection
        # after the program already finished.
        recorder.finalize(interp)
    fault_event = injector.fault_event if injector.fault_event is not None else -1
    retries = max(0, supervisor.max_streak - 1)
    if recorder is not None:
        detect_latency = recorder.first_latency
        replay_divergences = len(recorder.divergences)
        replay_overhead = recorder.detector.replayed_events
    else:
        detect_latency = injector.detect_latency
        replay_divergences = 0
        replay_overhead = 0
    cf_struck = len(cf_injector.injected) if cf_injector is not None else 0
    common = dict(
        fault_event=fault_event,
        detect_latency=detect_latency,
        recovery_attempts=supervisor.attempts,
        trapped=trapped,
        hang=hang,
        retries=retries,
        double_faults=supervisor.double_faults,
        metadata_faults=interp.guard.metadata_faults,
        metadata_repairs=interp.guard.repairs,
        replay_divergences=replay_divergences,
        replay_overhead=replay_overhead,
        control_faults=cf_struck,
        cfe_detections=cf_injector.detections if cf_injector is not None else 0,
    )

    def classify_cfe(outcome: str) -> str:
        """Re-attribute an outcome to the control-flow surface when a
        control-flow fault actually struck this trial.  Escalation
        outcomes (livelock, escape, metadata) keep their reason codes —
        they describe the *recovery* failure, not the fault surface."""
        if not cf_struck:
            return outcome
        if outcome in ("recovered", "recovered_after_retry"):
            return "cfe_detected_recovered"
        if outcome == "detected_unrecoverable" and cf_injector.wild:
            return "cfe_wild_trap"
        if outcome == "sdc":
            return "cfe_silent"
        return outcome

    if escalation is not None:
        outcome = escalation
        if (
            supervisor.double_faults
            and escalation not in ("livelock", "metadata_corrupt_detected")
        ):
            outcome = "double_fault_unrecoverable"
        return TrialResult(outcome=outcome, **common)
    if result is None:
        outcome = (
            "double_fault_unrecoverable"
            if supervisor.double_faults
            else "detected_unrecoverable"
        )
        return TrialResult(outcome=classify_cfe(outcome), **common)
    wasted = max(0, result.events - golden.events)
    correct = result.output == golden.output and result.value == golden.value
    if correct:
        if supervisor.attempts == 0:
            outcome = "masked"
        elif retries:
            outcome = "recovered_after_retry"
        else:
            outcome = "recovered"
    elif interp.guard.tainted_consumed:
        # A rollback consumed corrupted recovery metadata without
        # detection and the result is wrong: the restore itself wrote
        # garbage.  Distinguished from generic sdc because this is the
        # class the metadata guard exists to eliminate.
        outcome = "metadata_corrupt_silent"
    elif not injector.fault_events:
        # The fault site was never reached (shorter dynamic path): the
        # "injection" hit dead time — architecturally masked.
        outcome = "masked" if result.output == golden.output else "sdc"
    elif recorder is not None and recorder.end_divergence:
        # The replay check on the final partial chunk caught the
        # corruption, but the run had already completed wrong: detected
        # too late to recover — not silent.
        outcome = "detected_unrecoverable"
    else:
        outcome = "sdc"
    return TrialResult(outcome=classify_cfe(outcome), wasted_work=wasted,
                       **common)


def _alarm_available() -> bool:
    import signal

    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def call_with_timeout(fn: Callable[[], TrialResult],
                      seconds: Optional[float]):
    """Run ``fn`` under a wall-clock alarm; raise :class:`TrialTimeout`
    when it overruns.

    The guard uses ``SIGALRM`` so it can interrupt a trial stuck inside
    the interpreter loop; where alarms are unavailable (non-main thread,
    platforms without ``SIGALRM``) the call runs unguarded — the
    deterministic step budget still bounds runaway trials.
    """
    if not seconds or seconds <= 0 or not _alarm_available():
        return fn()
    import signal

    def _on_alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_planned_trial(
    module: Module,
    golden: ExecResult,
    plan: FaultPlan,
    config: Optional[CampaignConfig] = None,
    *,
    externals=None,
    memory_image: Optional[MachineMemory] = None,
    max_steps_factor: int = 4,
    **knobs,
) -> TrialResult:
    """Execute one trial from a pre-derived :class:`FaultPlan`.

    Single-fault plans unpack to the scalar :func:`run_trial` form so
    ``TrialResult.detect_latency`` keeps its historical scalar shape.
    The config's ``trial_timeout`` (seconds) is the campaign engine's
    wall-clock guard: an overrunning trial yields ``infra_error``
    instead of stalling the whole campaign.
    """
    if config is None or knobs:
        config = campaign_config(config, **knobs)
    if plan.single:
        site, bit, latency = plan.sites[0], plan.bits[0], plan.latencies[0]
    else:
        site, bit, latency = list(plan.sites), list(plan.bits), list(plan.latencies)

    def _execute() -> TrialResult:
        return run_trial(
            module, golden, site, bit, latency, config,
            externals=externals,
            memory_image=memory_image,
            max_steps_factor=max_steps_factor,
            recovery_faults=plan.recovery_faults,
            metadata_faults=plan.metadata_faults,
            control_faults=plan.control_faults,
        )

    try:
        return call_with_timeout(_execute, config.trial_timeout)
    except TrialTimeout:
        return infra_error_trial()


def run_campaign(
    module: Module,
    config: Optional[CampaignConfig] = None,
    *,
    trials: int = 200,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    on_result: Optional[Callable[[int, TrialResult], None]] = None,
    completed: Optional[Dict[int, TrialResult]] = None,
    externals=None,
    max_pool_retries: int = 2,
    **knobs,
) -> CampaignResult:
    """A full SFI campaign with uniformly-distributed fault sites.

    ``config`` (or keyword ``knobs`` naming its fields, see
    :class:`CampaignConfig`) fixes what every trial does; the rest of
    the arguments say how many trials run and where.

    Every trial's randomness comes from its own seed-keyed substream
    (:func:`plan_trial`), so ``jobs > 1`` fans trials out across worker
    processes (see :mod:`repro.runtime.parallel`) and returns the exact
    ``TrialResult`` sequence of the serial path — merged back in trial
    order — by construction.  ``chunk_size`` tunes how many trials each
    worker task claims; ``progress`` is called as ``progress(done,
    total)`` whenever completed-trial counts advance.  Workloads whose
    ``externals`` cannot cross a process boundary fall back to the
    serial path silently.

    Resilience: the config's ``trial_timeout`` bounds each trial's wall
    clock, ``max_pool_retries`` bounds worker-pool rebuilds after a
    crash (surviving trials then classify ``infra_error``),
    ``completed`` seeds the campaign with journaled results to skip
    (resume), and ``on_result`` streams each newly-executed ``(index,
    result)`` pair — the campaign journal's append hook — in trial-index
    order for any ``jobs``, so a parallel journal is the serial bytes.

    Both engines are bit-identical (the equivalence contract), so
    campaign results — and journals, which deliberately do not record
    the engine — are valid across engines: a campaign journaled under
    one engine can resume under the other.  Replay-backend plans stay
    draw-for-draw identical to model-backend ones, so the two are
    comparable at the same seed and remain jobs-independent and
    resumable like any other.
    """
    config = campaign_config(config, **knobs)
    start = time.monotonic()
    completed = {
        index: trial for index, trial in (completed or {}).items()
        if index < trials
    }
    pending = sum(index not in completed for index in range(trials))
    pooled = jobs > 1 and pending > 1
    # One pristine memory image per campaign: every golden run and
    # trial clones it instead of re-materializing all globals.  Golden
    # snapshots are recorded where trials run: here when serial, in
    # each worker when pooled.
    memory_image = MachineMemory.pristine(module)
    golden = config.golden(module, externals, memory_image,
                           record=pending > 0 and not pooled)
    plans = config.plans(trials, golden.events)
    todo = [plan for plan in plans if plan.trial_index not in completed]
    resumed = len(plans) - len(todo)

    if pooled:
        from repro.runtime.parallel import ParallelUnavailable, run_parallel_campaign

        try:
            results, worker_trials, pool_restarts = run_parallel_campaign(
                module, todo, config,
                externals=externals,
                jobs=jobs,
                chunk_size=chunk_size,
                progress=progress,
                max_pool_retries=max_pool_retries,
                on_result=on_result,
                done_offset=resumed,
                total=trials,
            )
        except ParallelUnavailable:
            golden = config.golden(module, externals, memory_image)
        except CampaignInterrupted as exc:
            # Journaled (resumed) trials are part of the partial result
            # the CLI reports, even though this run never re-executed
            # them.
            merged = dict(completed)
            merged.update(exc.results)
            raise CampaignInterrupted(merged, trials) from None
        else:
            by_index = dict(completed)
            by_index.update(
                (plan.trial_index, trial)
                for plan, trial in zip(todo, results)
            )
            return CampaignResult(
                [by_index[i] for i in range(trials)],
                elapsed=time.monotonic() - start,
                jobs=jobs,
                worker_trials=worker_trials,
                pool_restarts=pool_restarts,
                resumed_trials=resumed,
            )
    results = []
    done = 0
    finished: Dict[int, TrialResult] = dict(completed)
    try:
        for plan in plans:
            if plan.trial_index in completed:
                results.append(completed[plan.trial_index])
            else:
                trial = run_planned_trial(
                    module, golden, plan, config,
                    externals=externals, memory_image=memory_image,
                )
                if on_result is not None:
                    on_result(plan.trial_index, trial)
                results.append(trial)
                finished[plan.trial_index] = trial
            done += 1
            if progress is not None:
                progress(done, trials)
    except KeyboardInterrupt:
        # Graceful SIGINT: everything already finished was streamed to
        # ``on_result`` (so a journal has it on disk); hand the partial
        # results up instead of an unhandled traceback.
        raise CampaignInterrupted(finished, trials) from None
    return CampaignResult(
        results,
        elapsed=time.monotonic() - start,
        jobs=1,
        worker_trials={"worker-0": len(results) - resumed},
        resumed_trials=resumed,
    )
