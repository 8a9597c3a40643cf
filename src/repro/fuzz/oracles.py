"""The differential oracle suite: what "correct" means, checkable per program.

Every oracle takes one generated :class:`~repro.fuzz.generator.
FuzzProgram` and returns the list of :class:`OracleFailure` it found
(empty when the program upholds the property).  The suite covers the
safety argument of the paper end to end:

* ``semantic``     — Encore instrumentation preserves program semantics
  under every granularity/alias-mode configuration (Section 3.5's
  "re-execution is transparent" claim);
* ``conservative`` — the static idempotence analysis (Equations 1–4)
  never calls a region idempotent that exhibits a dynamic WAR
  (:mod:`repro.runtime.traces` is the ground truth);
* ``opt``          — the optimizer pass mix is semantics-preserving;
* ``rollback``     — checkpoint/rollback restores exact state: a
  recovery triggered with *no* fault injected must reproduce the golden
  output, and planned SFI trials must be replay-deterministic;
* ``campaign``     — a parallel (``jobs=2``) SFI campaign is
  bit-identical to the serial one;
* ``prune``        — statically-masked bit flips are invisible end to
  end;
* ``fastforward``  — SFI trials on the fast engine, which resume from
  golden-run snapshots and run hook-free wherever their hooks have no
  work, equal fully hooked trials from event 0 on the reference engine
  across every fault surface.

Failure fingerprints are deliberately coarse — ``oracle:kind`` with the
offending configuration but never concrete values — so a fingerprint
survives test-case reduction: the reducer shrinks a program while
preserving the fingerprint, not the exact mismatch bytes.

**Planted defects** (test-only): setting the ``ENCORE_FUZZ_DEFECT``
environment variable arms a deliberate miscompile so the fuzzer's
find-and-reduce loop can be exercised end to end:

* ``opt-swap-add``   — the first surviving ``add`` in ``main`` is
  silently rewritten to ``sub`` after optimization;
* ``drop-ckpt-mem``  — the first ``ckpt_mem`` of the instrumented
  module is deleted, so rollback restores stale memory.

The environment variable crosses fork boundaries, so planted defects
are visible to parallel campaigns too.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
from typing import Dict, List, Optional, Sequence

from repro.encore import EncoreConfig, compile_for_encore
from repro.encore.idempotence import IdempotenceAnalyzer, RegionStatus
from repro.fuzz.generator import EXTERNALS, FuzzProgram
from repro.ir import VerificationError, verify_module
from repro.opt import optimize_module
from repro.runtime import (
    CampaignConfig,
    DetectionModel,
    Interpreter,
    plan_trial,
    run_campaign,
    run_planned_trial,
)
from repro.runtime.sfi import golden_run
from repro.runtime.traces import capture_trace, window_war_addresses

#: Test-only escape hatch: plants a deliberate defect (see module docs).
DEFECT_ENV = "ENCORE_FUZZ_DEFECT"

#: Execution guard while checking a candidate (reduction can propose
#: modules that loop; oracles must answer, not hang).
MAX_STEPS = 2_000_000


def planted_defect() -> Optional[str]:
    return os.environ.get(DEFECT_ENV) or None


@dataclasses.dataclass(frozen=True)
class OracleFailure:
    """One violated property.

    ``kind`` is the coarse failure class (stable under reduction);
    ``detail`` carries the concrete evidence for the human reading the
    report and takes no part in the fingerprint.
    """

    oracle: str
    kind: str
    detail: str = ""

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256(f"{self.oracle}:{self.kind}".encode())
        return digest.hexdigest()[:12]


class Oracle:
    """Base class: ``check`` returns the failures found (empty = pass)."""

    name = "oracle"

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        raise NotImplementedError

    def fail(self, kind: str, detail: str = "") -> OracleFailure:
        return OracleFailure(self.name, kind, detail)


def _run(module, program: FuzzProgram, max_steps: int = MAX_STEPS):
    return Interpreter(module, externals=EXTERNALS, max_steps=max_steps).run(
        program.entry, program.args, output_objects=program.output_objects
    )


def _golden(program: FuzzProgram):
    return _run(copy.deepcopy(program.module), program)


def _bound(golden_events: int) -> int:
    """Step budget for a variant run, relative to the golden one.

    Instrumentation and optimization change execution length by small
    constant factors; 32x headroom is far beyond either, so a variant
    that exceeds it is looping — a real finding, but one that should be
    rejected in milliseconds during reduction rather than ground out
    against the global :data:`MAX_STEPS` limit on every candidate.
    """
    return min(MAX_STEPS, golden_events * 32 + 50_000)


class SemanticEquivalenceOracle(Oracle):
    """Golden vs instrumented execution across the config matrix."""

    name = "semantic"

    #: One configuration per structurally distinct pipeline behaviour:
    #: both granularities, all three alias modes, and pruning disabled.
    CONFIGS = (
        ("interval/static", EncoreConfig()),
        ("interval/optimistic", EncoreConfig(alias_mode="optimistic")),
        ("interval/profiled", EncoreConfig(alias_mode="profiled")),
        ("function/static", EncoreConfig(granularity="function")),
        ("interval/static/nopmin", EncoreConfig(pmin=None)),
        ("interval/static/greedy",
         EncoreConfig(auto_tune=False, gamma=0.0, overhead_budget=10.0)),
    )

    def __init__(self, configs=None) -> None:
        self.configs = configs or self.CONFIGS

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        failures: List[OracleFailure] = []
        golden = _golden(program)
        for label, config in self.configs:
            try:
                report = compile_for_encore(
                    program.module, config, clone=True,
                    function=program.entry, args=program.args,
                    externals=EXTERNALS,
                )
                verify_module(report.module)
                result = _run(report.module, program,
                              max_steps=_bound(golden.events))
            except Exception as exc:  # compile or execution blew up
                failures.append(self.fail(
                    f"crash:{label}", f"{type(exc).__name__}: {exc}"))
                continue
            if result.value != golden.value or result.output != golden.output:
                failures.append(self.fail(
                    f"mismatch:{label}",
                    f"value {golden.value}->{result.value}, "
                    f"output diff on "
                    f"{[k for k in golden.output if golden.output[k] != result.output.get(k)]}",
                ))
        return failures


class IdempotenceConservativenessOracle(Oracle):
    """Static IDEMPOTENT verdicts checked against dynamic WAR truth.

    For each function, the whole-function SEME region is analyzed
    without pruning; a verdict of IDEMPOTENT is falsified by any
    dynamic WAR in an execution of that function (``main`` runs the
    real program; helpers run standalone on a deterministic argument —
    conservativeness must hold for *every* execution, so any witness
    counts).
    """

    name = "conservative"

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        failures: List[OracleFailure] = []
        module = copy.deepcopy(program.module)
        analyzer = IdempotenceAnalyzer(module)
        for func in module:
            if not func.blocks:
                continue
            verdict = analyzer.analyze_region(
                func.name, frozenset(func.reachable_labels()),
                func.entry_label,
            )
            if verdict.status is not RegionStatus.IDEMPOTENT:
                continue
            args = program.args if func.name == program.entry else (
                (7,) * len(func.params)
            )
            trace = capture_trace(
                module, function=func.name, args=args,
                max_steps=MAX_STEPS, externals=EXTERNALS,
            )
            wars = window_war_addresses(trace.records, 0, len(trace.records))
            if wars:
                failures.append(self.fail(
                    "unsound-idempotent",
                    f"{func.name}: static IDEMPOTENT but dynamic WAR on "
                    f"{sorted(wars)[:4]}",
                ))
        return failures


class OptEquivalenceOracle(Oracle):
    """The opt pass mix must not change observable behaviour."""

    name = "opt"

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        golden = _golden(program)
        optimized = copy.deepcopy(program.module)
        try:
            optimize_module(optimized)
            if planted_defect() == "opt-swap-add":
                _plant_swap_add(optimized, program.entry)
            verify_module(optimized)
            result = _run(optimized, program,
                          max_steps=_bound(golden.events))
        except Exception as exc:
            return [self.fail("crash", f"{type(exc).__name__}: {exc}")]
        if result.value != golden.value or result.output != golden.output:
            return [self.fail(
                "mismatch",
                f"value {golden.value}->{result.value}, output diff on "
                f"{[k for k in golden.output if golden.output[k] != result.output.get(k)]}",
            )]
        return []


class RollbackExactnessOracle(Oracle):
    """Checkpoint/rollback must restore exact pre-region state.

    Two properties: (1) a recovery triggered with *no fault injected*
    — at several deterministic points of the instrumented execution —
    must reproduce the golden output exactly (rollback + re-execution
    is the identity); (2) planned SFI trials replay deterministically:
    the same :class:`FaultPlan` twice yields the same
    :class:`TrialResult`.
    """

    name = "rollback"

    #: Fractions of the instrumented run at which to force a recovery.
    TRIGGER_POINTS = (0.25, 0.5, 0.85)
    SFI_TRIALS = 4

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        failures: List[OracleFailure] = []
        golden = _golden(program)
        config = EncoreConfig(auto_tune=False, gamma=0.0,
                              overhead_budget=10.0)
        try:
            report = compile_for_encore(
                program.module, config, clone=True,
                function=program.entry, args=program.args,
                externals=EXTERNALS,
            )
            if planted_defect() == "drop-ckpt-mem":
                _plant_drop_ckpt(report.module)
            baseline = _run(report.module, program,
                            max_steps=_bound(golden.events))
        except Exception as exc:
            return [self.fail("crash", f"{type(exc).__name__}: {exc}")]
        if not report.selected_regions:
            return []

        for point in self.TRIGGER_POINTS:
            site = max(1, int(baseline.events * point))
            state = {"fired": False}

            def hook(interp, event, _site=site, _state=state):
                if not _state["fired"] and event.index >= _site:
                    _state["fired"] = interp.trigger_recovery()

            try:
                interp = Interpreter(
                    report.module, post_step=hook, externals=EXTERNALS,
                    max_steps=_bound(golden.events) * 2,
                )
                result = interp.run(
                    program.entry, program.args,
                    output_objects=program.output_objects,
                )
            except Exception as exc:
                failures.append(self.fail(
                    "trigger-crash", f"at {point}: {type(exc).__name__}: {exc}"))
                continue
            if state["fired"] and (
                result.value != golden.value or result.output != golden.output
            ):
                failures.append(self.fail(
                    "inexact-restore",
                    f"no-fault recovery at event {site} diverged: value "
                    f"{golden.value}->{result.value}",
                ))

        detector = DetectionModel(dmax=50)
        instrumented_golden = golden_run(
            report.module, program.entry, program.args,
            program.output_objects, externals=EXTERNALS,
            threads=program.threads,
        )
        for index in range(self.SFI_TRIALS):
            plan = plan_trial(program.seed, index,
                              instrumented_golden.events, detector)
            first = run_planned_trial(
                report.module, instrumented_golden, plan,
                function=program.entry, args=program.args,
                output_objects=program.output_objects, externals=EXTERNALS,
                threads=program.threads,
            )
            second = run_planned_trial(
                report.module, instrumented_golden, plan,
                function=program.entry, args=program.args,
                output_objects=program.output_objects, externals=EXTERNALS,
                threads=program.threads,
            )
            if first != second:
                failures.append(self.fail(
                    "nondeterministic-trial",
                    f"trial {index}: {first.outcome} != {second.outcome}",
                ))
        return failures


class ReplayDeterminismOracle(Oracle):
    """The replay detector's ground truth: execution is deterministic.

    Three properties of :mod:`repro.runtime.replay` on a fault-free
    program: (1) recording the chunk log twice yields byte-identical
    digests (the log is a pure function of the program); (2) replaying
    every chunk of the raw program from its entry snapshot reproduces
    the recorded digest — a divergence with no fault injected is a bug
    in the recorder, the snapshot, or the interpreter; (3) the same
    holds on the Encore-instrumented module, which exercises the
    region-boundary chunk seals and checkpoint/restore replay.
    """

    name = "replay"

    CHUNK_SIZE = 32

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        from repro.runtime.replay import record_chunk_log

        if program.threads > 1:
            # Chunked replay cannot reconstruct scheduler state (the
            # campaign layer refuses the replay backend for threads > 1
            # for the same reason), so the property does not apply to
            # spawn-containing programs.
            return []

        failures: List[OracleFailure] = []
        golden = _golden(program)
        try:
            _, first = record_chunk_log(
                copy.deepcopy(program.module), program.entry, program.args,
                program.output_objects, chunk_size=self.CHUNK_SIZE,
                externals=EXTERNALS, max_steps=_bound(golden.events),
            )
            _, second = record_chunk_log(
                copy.deepcopy(program.module), program.entry, program.args,
                program.output_objects, chunk_size=self.CHUNK_SIZE,
                externals=EXTERNALS, max_steps=_bound(golden.events),
            )
        except Exception as exc:
            return [self.fail("crash", f"{type(exc).__name__}: {exc}")]
        if [(r.start_event, r.length, r.digest) for r in first.chunk_log] != [
            (r.start_event, r.length, r.digest) for r in second.chunk_log
        ]:
            failures.append(self.fail(
                "unstable-digest",
                f"chunk logs differ across identical recordings "
                f"({len(first.chunk_log)} vs {len(second.chunk_log)} chunks)",
            ))

        variants = [("raw", copy.deepcopy(program.module))]
        try:
            report = compile_for_encore(
                program.module,
                EncoreConfig(auto_tune=False, gamma=0.0,
                             overhead_budget=10.0),
                clone=True, function=program.entry, args=program.args,
                externals=EXTERNALS,
            )
            variants.append(("instrumented", report.module))
        except Exception as exc:
            failures.append(self.fail(
                "crash", f"instrument: {type(exc).__name__}: {exc}"))
        for label, module in variants:
            try:
                _, recorder = record_chunk_log(
                    module, program.entry, program.args,
                    program.output_objects, chunk_size=self.CHUNK_SIZE,
                    externals=EXTERNALS, max_steps=_bound(golden.events),
                    check=True,
                )
            except Exception as exc:
                failures.append(self.fail(
                    f"crash:{label}", f"{type(exc).__name__}: {exc}"))
                continue
            if recorder.divergences or recorder.end_divergence:
                failures.append(self.fail(
                    f"spurious-divergence:{label}",
                    f"fault-free replay diverged at chunk ends "
                    f"{[end for end, _ in recorder.divergences][:4]}",
                ))
        return failures


class CampaignEquivalenceOracle(Oracle):
    """Serial vs ``jobs=2`` SFI campaigns must be bit-identical."""

    name = "campaign"

    def __init__(self, trials: int = 8, jobs: int = 2) -> None:
        self.trials = trials
        self.jobs = jobs

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        config = EncoreConfig(auto_tune=False, gamma=0.0,
                              overhead_budget=10.0)
        try:
            report = compile_for_encore(
                program.module, config, clone=True,
                function=program.entry, args=program.args,
                externals=EXTERNALS,
            )
        except Exception as exc:
            return [self.fail("crash", f"{type(exc).__name__}: {exc}")]
        detector = DetectionModel(dmax=50)
        kwargs = dict(
            function=program.entry,
            args=program.args,
            output_objects=program.output_objects,
            detector=detector,
            trials=self.trials,
            seed=program.seed,
            externals=EXTERNALS,
            threads=program.threads,
        )
        serial = run_campaign(report.module, jobs=1, **kwargs)
        parallel = run_campaign(report.module, jobs=self.jobs, **kwargs)
        if serial.trials != parallel.trials:
            diverged = [
                i for i, (a, b) in
                enumerate(zip(serial.trials, parallel.trials)) if a != b
            ]
            return [self.fail(
                "serial-parallel-divergence",
                f"trials diverged at indices {diverged[:4]}",
            )]
        return []


class FastForwardOracle(Oracle):
    """Fast-forwarded trials must equal fully hooked ones.

    On the fast engine a trial starts from the golden run's snapshot
    nearest before its first planned event and runs decoded and
    hook-free wherever its hooks have no work; on the reference engine
    it runs from event 0 with every step hooked.  Per configuration,
    each engine takes its own campaign golden (the fast one carries the
    snapshots), the two goldens must agree, and the same plans on both
    engines must yield identical :class:`TrialResult` lists.  The
    configurations cover every fault surface: several register faults,
    a recovery-window fault with a checksum-guarded metadata fault, and
    a control-flow fault.
    """

    name = "fastforward"

    TRIALS = 8
    CONFIGS = (
        ("multi-fault", dict(faults_per_trial=2)),
        ("recovery-metadata", dict(
            recovery_faults_per_trial=1, metadata_faults_per_trial=1,
            metadata_guard="checksum",
        )),
        ("control-flow", dict(cf_faults_per_trial=1)),
    )

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        try:
            module = compile_for_encore(
                program.module,
                EncoreConfig(auto_tune=False, gamma=0.0,
                             overhead_budget=10.0),
                clone=True, function=program.entry, args=program.args,
                externals=EXTERNALS,
            ).module
        except Exception as exc:
            return [self.fail("crash", f"{type(exc).__name__}: {exc}")]
        failures: List[OracleFailure] = []
        for label, knobs in self.CONFIGS:
            goldens, trials = {}, {}
            for engine in ("fast", "reference"):
                config = CampaignConfig(
                    function=program.entry, args=program.args,
                    output_objects=program.output_objects,
                    seed=program.seed, detector=DetectionModel(dmax=50),
                    threads=program.threads, engine=engine, **knobs,
                )
                golden = goldens[engine] = config.golden(module, EXTERNALS)
                trials[engine] = [
                    run_planned_trial(module, golden, plan, config,
                                      externals=EXTERNALS)
                    for plan in config.plans(self.TRIALS, golden.events)
                ]
            if goldens["fast"] != goldens["reference"]:
                failures.append(self.fail(
                    f"mismatch:{label}",
                    f"golden runs differ: fast {goldens['fast']} != "
                    f"reference {goldens['reference']}",
                ))
                continue
            diverged = [
                i for i, (fast, ref) in
                enumerate(zip(trials["fast"], trials["reference"]))
                if fast != ref
            ]
            if diverged:
                first = diverged[0]
                failures.append(self.fail(
                    f"mismatch:{label}",
                    f"trials {diverged[:4]} diverged; trial {first}: fast "
                    f"{trials['fast'][first]} != reference "
                    f"{trials['reference'][first]}",
                ))
        return failures


class PruneSoundnessOracle(Oracle):
    """Statically-masked bit flips must be invisible end to end.

    The incremental subsystem's bit-liveness analysis
    (:mod:`repro.incremental.bitmask`) prunes (site, bit) pairs it
    proves unobservable and classifies their outcomes analytically
    instead of executing them.  This oracle is the ground truth behind
    that shortcut: for a sample of statically-dead pairs, inject the
    flip under the reference interpreter with *no* detector armed and
    require the final value and every observed output byte-identical
    to the fault-free run.  Any divergence means the static analysis
    called a live bit dead — an unsound prune.
    """

    name = "prune"

    #: Dead (event, bit) pairs exercised per program.
    SAMPLE = 12

    def check(self, program: FuzzProgram) -> List[OracleFailure]:
        import random

        from repro.incremental import (
            capture_attribution,
            dead_sites,
            module_dead_masks,
        )
        from repro.runtime.interpreter import bitflip

        if getattr(program, "threads", 1) > 1:
            # The flip hook targets the current frame; under the
            # cooperative scheduler that is not necessarily the frame
            # the masks describe.  The campaign engine refuses pruning
            # for threaded workloads for the same reason.
            return []
        config = EncoreConfig(auto_tune=False, gamma=0.0,
                              overhead_budget=10.0)
        try:
            report = compile_for_encore(
                program.module, config, clone=True,
                function=program.entry, args=program.args,
                externals=EXTERNALS,
            )
            masks = module_dead_masks(
                report.module, output_objects=program.output_objects
            )
            profile = capture_attribution(
                report.module, function=program.entry, args=program.args,
                output_objects=program.output_objects, externals=EXTERNALS,
                max_steps=MAX_STEPS,
            )
        except Exception as exc:
            return [self.fail("crash", f"{type(exc).__name__}: {exc}")]
        pairs = dead_sites(profile, masks)
        if not pairs:
            return []
        rng = random.Random(program.seed)
        sample = (pairs if len(pairs) <= self.SAMPLE
                  else rng.sample(pairs, self.SAMPLE))
        golden = profile.golden
        failures: List[OracleFailure] = []
        for event, bit in sample:
            state = {"done": False}

            def hook(interp, ev, _event=event, _bit=bit, _state=state):
                if not _state["done"] and ev.index == _event:
                    frame = interp.current_frame
                    dest = ev.inst.defs()[0]
                    frame.regs[dest] = bitflip(frame.regs[dest], _bit)
                    _state["done"] = True

            try:
                result = Interpreter(
                    report.module, post_step=hook, externals=EXTERNALS,
                    max_steps=_bound(golden.events),
                ).run(
                    program.entry, program.args,
                    output_objects=program.output_objects,
                )
            except Exception as exc:
                failures.append(self.fail(
                    "masked-bit-crash",
                    f"event {event} bit {bit}: "
                    f"{type(exc).__name__}: {exc}",
                ))
                continue
            if (result.value != golden.value
                    or result.output != golden.output):
                failures.append(self.fail(
                    "masked-bit-effect",
                    f"event {event} bit {bit}: value "
                    f"{golden.value} -> {result.value}",
                ))
        return failures


def _plant_swap_add(module, entry: str) -> None:
    """Test-only miscompile: first ``add`` of the entry becomes ``sub``."""
    func = module.get_function(entry)
    if func is None:
        return
    for block in func:
        for inst in block:
            if inst.opcode == "binop" and inst.op == "add":
                inst.op = "sub"
                return


def _plant_drop_ckpt(module) -> None:
    """Test-only miscompile: delete the first memory checkpoint."""
    for func in module:
        for block in func:
            for i, inst in enumerate(block.instructions):
                if inst.opcode == "ckpt_mem":
                    del block.instructions[i]
                    return


#: Registry, in the order the campaign runs them.
ORACLE_REGISTRY = {
    "semantic": SemanticEquivalenceOracle,
    "conservative": IdempotenceConservativenessOracle,
    "opt": OptEquivalenceOracle,
    "rollback": RollbackExactnessOracle,
    "replay": ReplayDeterminismOracle,
    "campaign": CampaignEquivalenceOracle,
    "prune": PruneSoundnessOracle,
    "fastforward": FastForwardOracle,
}

#: The default per-program suite; ``campaign`` is sampled separately by
#: the driver (it spins up worker pools, so it runs every Nth program).
DEFAULT_ORACLES = (
    "semantic", "conservative", "opt", "rollback", "replay", "campaign",
    "prune", "fastforward",
)


def make_oracles(names: Sequence[str]) -> List[Oracle]:
    unknown = [n for n in names if n not in ORACLE_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown}; "
            f"expected {sorted(ORACLE_REGISTRY)}"
        )
    return [ORACLE_REGISTRY[name]() for name in names]


def run_oracles(
    program: FuzzProgram, oracles: Sequence[Oracle]
) -> List[OracleFailure]:
    """Run every oracle; a crashed oracle is itself a failure."""
    failures: List[OracleFailure] = []
    for oracle in oracles:
        try:
            failures.extend(oracle.check(program))
        except Exception as exc:  # an oracle must never take down a campaign
            failures.append(OracleFailure(
                oracle.name, "oracle-error",
                f"{type(exc).__name__}: {exc}",
            ))
    return failures
