"""The three workloads, each a closed loop of units of timed work.

A unit is one campaign (``inject-*``) or one compile sweep
(``compile-sweep``).  A runner sets up once, then the loop in
``run.py`` asks it for units until the run's time is spent; the next
unit starts only when the previous one has finished.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import random
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import encore
from repro.encore import EncoreConfig
from repro.experiments.fig5_idempotence import PMIN_VALUES
from repro.experiments.harness import PipelineCache, config_key
from repro.runtime import DetectionModel, SupervisorPolicy, sfi
from repro.runtime.journal import CampaignJournal, campaign_metadata
from repro.workloads import all_workloads, build_workload

from perfbench import checks, speed

ROOT = Path(__file__).resolve().parent.parent


@dataclasses.dataclass
class Unit:
    """One finished unit of timed work.

    ``start`` and ``end`` are ``perf_counter`` times; ``busy`` is the
    wall time between them less the calibration kernel's, and
    ``seconds`` is ``busy`` at reference speed (see ``speed.py``), as
    are the per-operation times ``op_ms``.
    """

    key: int
    start: float
    end: float
    busy: float
    seconds: float
    ops: int
    failed: int
    op_ms: List[float]
    payload: Any
    #: Wall seconds from a campaign's start to its first trial result.
    first_result: float = 0.0
    jobs: int = 1

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class InjectConfig:
    """One ``inject`` command line, as run_campaign arguments."""

    workload: str
    trials: int
    jobs: int = 1
    journal: bool = False
    recovery_faults: int = 0
    metadata_faults: int = 0
    guard: str = "off"
    cf_faults: int = 0
    cfe_detector: str = "signature"
    chunk_size: Optional[int] = None
    #: Trials per campaign re-executed on the reference engine.
    check_sample: int = 2


INJECT = {
    # inject 164.gzip.encore --trials 30
    "inject-gzip": InjectConfig("164.gzip", trials=30),
    # inject cjpeg.encore --jobs 2 --journal --chunk-size 2
    #   --recovery-faults-per-trial 1 --metadata-faults 1 --guard checksum
    #   --cf-faults-per-trial 1
    # With the default four chunks per worker a campaign waits for the
    # slower worker's last chunk, and on a shared host that doubled the
    # run-to-run spread; two-trial chunks keep both workers busy to the end.
    "inject-pool": InjectConfig(
        "cjpeg", trials=100, jobs=2, journal=True, recovery_faults=1,
        metadata_faults=1, guard="checksum", cf_faults=1, chunk_size=2,
        check_sample=5,
    ),
}

#: Trials per campaign in ``--tiny`` runs (the benchmark's own tests).
TINY_TRIALS = {"inject-gzip": 3, "inject-pool": 8}


class InjectRunner:
    """Fig 8 campaigns on one Encore-instrumented workload."""

    campaigns = True

    def __init__(self, name: str, bench_seed: int, scratch: str, tiny: bool) -> None:
        cfg = INJECT[name]
        if tiny:
            cfg = dataclasses.replace(
                cfg, trials=TINY_TRIALS[name], check_sample=1,
            )
        self.cfg = cfg
        self.bench_seed = bench_seed
        self.scratch = scratch
        self.detector = DetectionModel()
        self.policy = SupervisorPolicy()
        self._journals = 0

    def plan_seed(self, key: int) -> int:
        """The k-th campaign of a run uses plan seed 1000 * seed + k."""
        return 1000 * self.bench_seed + key

    def setup(self) -> None:
        self.built = build_workload(self.cfg.workload)
        self.module = encore.compile_for_encore(
            self.built.module, function=self.built.entry,
            args=self.built.args, externals=self.built.externals,
        ).module
        self._campaign(self.plan_seed(0), trials=0, on_result=None)

    def _campaign(self, seed: int, trials: int, on_result, progress=None):
        cfg, built = self.cfg, self.built
        return sfi.run_campaign(
            self.module, function=built.entry, args=built.args,
            output_objects=built.output_objects, detector=self.detector,
            trials=trials, seed=seed, faults_per_trial=1,
            recovery_faults_per_trial=cfg.recovery_faults,
            metadata_faults_per_trial=cfg.metadata_faults,
            cf_faults_per_trial=cfg.cf_faults,
            cfe_detector=cfg.cfe_detector, metadata_guard=cfg.guard,
            externals=built.externals, jobs=cfg.jobs,
            chunk_size=cfg.chunk_size, policy=self.policy, on_result=on_result,
            progress=progress,
        )

    def metadata(self, seed: int) -> Dict:
        cfg, built = self.cfg, self.built
        return campaign_metadata(
            self.module, seed, self.detector, function=built.entry,
            args=built.args, faults_per_trial=1,
            recovery_faults_per_trial=cfg.recovery_faults,
            metadata_faults_per_trial=cfg.metadata_faults,
            metadata_guard=cfg.guard, cf_faults_per_trial=cfg.cf_faults,
            cfe_detector=cfg.cfe_detector,
        )

    def unit(self, key: int) -> Unit:
        seed = self.plan_seed(key)
        journal = path = metadata = on_result = None
        if self.cfg.journal:
            self._journals += 1
            path = os.path.join(self.scratch, f"journal-{self._journals}.jsonl")
            metadata = self.metadata(seed)
            journal = CampaignJournal(path)
            journal.write_header(metadata)
            on_result = journal.record

        # Every trial, serial or in a pool worker, is followed by a
        # calibration-kernel run in the same process; the trial and the
        # campaign are normalized by the kernel runs around them.  The
        # first progress report times the campaign's first result.
        arrivals: List[float] = []

        def progress(done, total):
            arrivals.append(time.perf_counter())

        watch = speed.Stopwatch()
        with contextlib.ExitStack() as stack:
            if journal is not None:
                stack.callback(journal.close)
            trials = stack.enter_context(
                speed.after_each_trial(os.path.join(self.scratch, "trials.bin"))
            )
            result = self._campaign(seed, self.cfg.trials, on_result, progress)
        watch.lap(trials.runs, self.cfg.jobs)
        end = time.perf_counter()
        op_ms = [
            seconds * 1000
            for seconds in speed.at_reference_speed(trials.laps, watch.runs)
        ]
        first = arrivals[0] if arrivals else end
        return Unit(
            key, watch.started, end, watch.wall, watch.seconds()[0],
            len(result.trials), result.infra_errors, op_ms,
            {"result": result, "journal": path, "metadata": metadata},
            first - watch.started, self.cfg.jobs,
        )

    # -- after the timed work -------------------------------------------------

    def golden(self, engine: Optional[str] = None):
        built = self.built
        return sfi.golden_run(
            self.module, built.entry, built.args, built.output_objects,
            externals=built.externals, engine=engine,
        )

    def check(self, units: List[Unit]) -> List[str]:
        golden_ref = self.golden("reference")
        problems = []
        if self.golden() != golden_ref:
            problems.append("golden run differs between engines")
        first: Dict[int, Unit] = {}
        for unit in units:
            trials = unit.payload["result"].trials
            if unit.payload["journal"] is not None:
                problems += checks.check_journal(
                    unit.payload["journal"], unit.payload["metadata"], trials,
                )
            if unit.key in first:
                if trials != first[unit.key].payload["result"].trials:
                    problems.append(
                        f"campaign {unit.key}: a repeat gave other trials"
                    )
                continue
            first[unit.key] = unit
            seed = self.plan_seed(unit.key)
            problems += checks.check_trials(
                self, golden_ref, seed, trials,
                checks.sample_indices(
                    self.bench_seed, seed, len(trials), self.cfg.check_sample,
                ),
            )
        return problems

    @functools.cached_property
    def golden_events(self) -> int:
        return self.golden().events

    def counts(self, unit: Unit) -> Dict[str, float]:
        """Exact per-layer figures of one campaign's trials and journal."""
        result = unit.payload["result"]
        trials = result.trials
        events = self.golden_events
        latencies = [t.detect_latency for t in trials if t.detect_latency is not None]
        out = {
            "sfi.prefix_frac": statistics.fmean(
                t.fault_event / events for t in trials
            ) if trials else 0.0,
            "sfi.detect_latency_mean": statistics.fmean(latencies) if latencies else 0.0,
            "sfi.wasted_work_mean": result.mean_wasted_work,
            "sfi.covered_frac": result.covered_fraction,
            "sfi.control_faults": sum(t.control_faults for t in trials),
            "sfi.cfe_detections": sum(t.cfe_detections for t in trials),
            "supervisor.recovery_attempts": sum(t.recovery_attempts for t in trials),
            "supervisor.retries": sum(t.retries for t in trials),
            "supervisor.double_faults": sum(t.double_faults for t in trials),
            "guarded_state.metadata_faults": sum(t.metadata_faults for t in trials),
            "guarded_state.metadata_repairs": sum(t.metadata_repairs for t in trials),
            "parallel.pool_restarts": result.pool_restarts,
        }
        if unit.payload["journal"] is not None:
            for name, value in checks.journal_order(unit.payload["journal"]).items():
                out[f"journal.{name}"] = value
        return out

    def trial_events(self, unit: Unit) -> int:
        """Golden-run events the unit's trials would re-execute."""
        return unit.ops * self.golden_events


FIG7_CONFIG = EncoreConfig(alias_mode="static")

#: Workloads swept in ``--tiny`` runs.
TINY_SWEEP = ("cjpeg", "rawcaudio")


class SweepRunner:
    """The compile side of Fig 5 and Fig 7, one PipelineCache per sweep.

    Fig 7's static-alias config equals Fig 5's Pmin=0.0 config (both are
    ``EncoreConfig`` defaults), so the cache serves those 23 requests
    from its memo: a sweep is 115 requests, 92 compiles and 23 plain
    runs.  The seed only permutes the order of the requests.
    """

    campaigns = False

    def __init__(self, name: str, bench_seed: int, scratch: str, tiny: bool) -> None:
        self.bench_seed = bench_seed
        self.tiny = tiny
        self._deep_checked = False

    def setup(self) -> None:
        self.specs = [
            spec for spec in all_workloads()
            if not self.tiny or spec.name in TINY_SWEEP
        ]
        pairs = [
            (spec, "fig5", pmin) for pmin in PMIN_VALUES for spec in self.specs
        ] + [(spec, "fig7", None) for spec in self.specs]
        random.Random(self.bench_seed).shuffle(pairs)
        self.pairs = pairs

    def unit(self, key: int) -> Unit:
        cache = PipelineCache()
        seen = set()
        results: Dict[tuple, Any] = {}
        compile_laps: List[int] = []
        failed = 0
        # A lap per request and per plain run, each normalized by the
        # host speed around it.
        watch = speed.Stopwatch()
        for spec, figure, pmin in self.pairs:
            config = FIG7_CONFIG if figure == "fig7" else EncoreConfig(pmin=pmin)
            memo = (spec.name, config_key(config))
            compiles = memo not in seen
            seen.add(memo)
            try:
                results[(spec.name, figure, pmin)] = cache.run(spec, config)
            except Exception:  # a compile that raised counts as failed
                traceback.print_exc()
                failed += 1
                continue
            finally:
                watch.lap()
            if compiles:
                compile_laps.append(len(watch.laps) - 1)
        plain = {}
        for spec, figure, _ in self.pairs:
            if figure == "fig7" and (spec.name, "fig7", None) in results:
                result = results[(spec.name, "fig7", None)]
                built = result.built
                plain[spec.name] = sfi.golden_run(
                    result.report.module, built.entry, built.args,
                    built.output_objects, externals=built.externals,
                )
                watch.lap()
        end = time.perf_counter()
        laps = watch.seconds()
        op_ms = [laps[index] * 1000 for index in compile_laps]
        payload = {"results": results, "plain": plain}
        payload["facts"] = checks.sweep_facts(payload)
        if self._deep_checked:
            # Only the first sweep is checked in depth; dropping the
            # others' modules keeps peak RSS independent of run length.
            payload = {"facts": payload["facts"]}
        self._deep_checked = True
        return Unit(key, watch.started, end, watch.wall, sum(laps),
                    len(op_ms), failed, op_ms, payload)

    def check(self, units: List[Unit]) -> List[str]:
        return checks.check_sweep(
            self.specs, units, str(ROOT / "results" / "fig5.csv"),
            [spec.name for spec in self.specs] if self.tiny else None,
        )


RUNNERS = {
    "inject-gzip": InjectRunner,
    "inject-pool": InjectRunner,
    "compile-sweep": SweepRunner,
}
