"""Shared experiment plumbing: build → profile → compile, with caching.

Experiments frequently need the same (workload, configuration) pipeline
result; :class:`PipelineCache` memoizes them for the lifetime of one
experiment run so the Figure 5 Pmin sweep and the Figure 7 alias-mode
comparison don't recompute each other's work.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.encore import EncoreConfig, EncoreReport, compile_for_encore
from repro.ir.module import Module
from repro.pipeline import AnalysisCache, PipelineStats
from repro.runtime import (
    CampaignConfig,
    CampaignResult,
    campaign_config,
    run_campaign,
)
from repro.workloads import WorkloadSpec, all_workloads
from repro.workloads.synth import BuiltWorkload


def config_key(config: EncoreConfig) -> tuple:
    """Hashable identity of a configuration, derived from its fields.

    Enumerating ``dataclasses.fields`` means a new :class:`EncoreConfig`
    knob can never be silently missing from the key (the old
    hand-maintained tuple could go stale).
    """
    return tuple(
        getattr(config, field.name)
        for field in dataclasses.fields(EncoreConfig)
    )


@dataclasses.dataclass
class PipelineResult:
    spec: WorkloadSpec
    built: BuiltWorkload
    report: EncoreReport


class PipelineCache:
    """Memoized (workload, config) -> pipeline report.

    Two layers: an identity memo on ``(workload, config_key)`` so
    repeated requests return the same :class:`PipelineResult`, and a
    shared :class:`repro.pipeline.AnalysisCache` underneath so even
    *distinct* configurations of the same workload reuse
    config-independent products — the training profile is executed once
    per workload, not once per sweep point, and idempotence verdicts
    are shared between configurations that agree on ``(pmin,
    alias_mode)``.  ``stats`` aggregates per-pass timing across every
    compilation this cache has run.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, tuple], PipelineResult] = {}
        self._analysis = AnalysisCache()
        self.stats = PipelineStats()

    def run(self, spec: WorkloadSpec, config: EncoreConfig) -> PipelineResult:
        key = (spec.name, config_key(config))
        if key not in self._cache:
            built = spec.build()
            report = compile_for_encore(
                built.module,
                copy.deepcopy(config),
                clone=False,
                cache=self._analysis,
                function=built.entry,
                args=built.args,
                externals=built.externals,
                stats=self.stats,
            )
            self._cache[key] = PipelineResult(spec, built, report)
        return self._cache[key]

    def run_all(
        self,
        config: EncoreConfig,
        names: Optional[Sequence[str]] = None,
    ) -> List[PipelineResult]:
        specs = all_workloads()
        if names is not None:
            wanted = set(names)
            specs = [s for s in specs if s.name in wanted]
        return [self.run(spec, config) for spec in specs]


def default_config(**overrides) -> EncoreConfig:
    """The paper's evaluation configuration: Pmin=0.0, ~20% budget."""
    return EncoreConfig(**overrides)


def campaign_jobs(default: Optional[int] = None) -> int:
    """Worker-process count for SFI campaigns.

    ``ENCORE_SFI_JOBS`` overrides everything (``0``/``all`` meaning
    every core), so figure/table reproductions exploit all cores with
    no code change; otherwise ``default`` applies, and the fallback is
    the serial path.  Campaign results are identical for any value.
    """
    env = os.environ.get("ENCORE_SFI_JOBS", "").strip()
    if env:
        if env.lower() in ("0", "all"):
            return os.cpu_count() or 1
        return max(1, int(env))
    if default is not None:
        return max(1, default)
    return 1


def campaign_trial_timeout() -> Optional[float]:
    """Per-trial wall-clock guard for experiment campaigns.

    ``ENCORE_SFI_TRIAL_TIMEOUT`` (seconds) arms the guard fleet-wide —
    useful on shared CI machines where one wedged trial should become
    an ``infra_error`` row instead of a job timeout.  Unset means no
    guard, preserving fully deterministic experiment output.
    """
    env = os.environ.get("ENCORE_SFI_TRIAL_TIMEOUT", "").strip()
    if env:
        value = float(env)
        if value > 0:
            return value
    return None


def campaign_server() -> Optional[str]:
    """URL of a ``repro serve`` instance, or None for local execution.

    ``ENCORE_SFI_SERVER`` routes every experiment campaign through the
    sharded, health-monitored campaign server — useful when a figure
    sweep should survive worker crashes, or when campaigns from several
    experiment processes should share one supervised pool.  Campaign
    results are bit-identical either way.
    """
    env = os.environ.get("ENCORE_SFI_SERVER", "").strip()
    return env or None


def _experiment_config(config: Optional[CampaignConfig],
                       knobs) -> CampaignConfig:
    """``config`` with ``knobs`` applied and an unset trial timeout
    resolved through :func:`campaign_trial_timeout`."""
    config = campaign_config(config, **knobs)
    if config.trial_timeout is None:
        config = dataclasses.replace(
            config, trial_timeout=campaign_trial_timeout()
        )
    return config


def _run_sfi_via_server(
    server: str, module: Module, config: CampaignConfig, trials: int,
) -> CampaignResult:
    """Submit the campaign over HTTP and rebuild a CampaignResult.

    The journal downloaded from the server is byte-identical to a local
    ``--journal`` run, so loading it back through
    :func:`repro.runtime.load_journal` reproduces the exact TrialResult
    list a local campaign would have returned.
    """
    from repro.ir.printer import module_to_text
    from repro.runtime.journal import load_journal
    from repro.service.client import ServiceClient, ServiceError

    spec = {
        "kind": "sfi",
        "module_text": module_to_text(module) + "\n",
        "trials": trials,
        **config.to_json(),
    }
    client = ServiceClient(server)
    accepted = client.submit(spec)
    campaign_id = accepted["id"]
    status = client.wait(campaign_id, timeout=3600.0)
    if status.get("state") != "completed":
        raise ServiceError(
            f"campaign {campaign_id} ended {status.get('state')!r}: "
            f"{status.get('error')}"
        )
    data = client.fetch_journal(campaign_id, follow=False)
    with tempfile.NamedTemporaryFile(
        suffix=".jsonl", prefix="encore-served-", delete=False
    ) as handle:
        handle.write(data)
        path = handle.name
    try:
        _metadata, completed = load_journal(path)
    finally:
        os.unlink(path)
    if len(completed) != trials:
        raise ServiceError(
            f"campaign {campaign_id} journal holds {len(completed)} "
            f"trials, expected {trials}"
        )
    aggregates = status.get("aggregates", {})
    return CampaignResult(
        trials=[completed[i] for i in range(trials)],
        elapsed=float(aggregates.get("elapsed_s", 0.0)),
        jobs=len(status.get("workers", ())) or 1,
        worker_trials={
            f"server-{server}": trials,
        },
        pool_restarts=int(status.get("worker_restarts", 0)),
    )


def run_sfi(
    module: Module,
    config: Optional[CampaignConfig] = None,
    *,
    trials: int = 200,
    externals=None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    **knobs,
) -> CampaignResult:
    """SFI campaign entry point for experiments and benchmarks.

    Identical to :func:`repro.runtime.run_campaign` except that
    ``jobs=None`` resolves through :func:`campaign_jobs` and an unset
    ``trial_timeout`` through :func:`campaign_trial_timeout`, so
    environment variables parallelise and wall-clock-guard every
    campaign an experiment runs.  ``engine=None`` defers to the session
    default (``ENCORE_ENGINE`` or the fast engine).

    When ``ENCORE_SFI_SERVER`` names a running ``repro serve``
    instance, the campaign is submitted there instead and the result
    rebuilt from the downloaded journal — bit-identical to local
    execution.  Campaigns the server cannot express (host-callable
    ``externals``) and unreachable servers fall back to local execution
    with a warning on stderr.
    """
    config = _experiment_config(config, knobs)
    server = campaign_server()
    if server is not None and not externals:
        from repro.service.client import ServiceError

        try:
            return _run_sfi_via_server(server, module, config, trials)
        except ServiceError as exc:
            print(
                f"# ENCORE_SFI_SERVER={server} unusable ({exc}); "
                "running campaign locally",
                file=sys.stderr,
            )
    elif server is not None and externals:
        print(
            f"# ENCORE_SFI_SERVER={server} skipped: campaign uses host "
            "externals the server cannot transport; running locally",
            file=sys.stderr,
        )
    return run_campaign(
        module, config, trials=trials, externals=externals,
        jobs=campaign_jobs() if jobs is None else jobs,
        chunk_size=chunk_size,
    )

def run_sfi_incremental(
    module: Module,
    store,
    config: Optional[CampaignConfig] = None,
    *,
    trials: int = 200,
    externals=None,
    jobs: Optional[int] = None,
    min_section_trials: int = 8,
    update_store: bool = True,
    **knobs,
):
    """Incremental SFI campaign entry point for experiments.

    ``store`` is a path (opened/created in place) or an already-open
    :class:`repro.incremental.SectionStore`.  Like :func:`run_sfi`,
    ``jobs=None`` resolves through :func:`campaign_jobs` and the trial
    timeout through :func:`campaign_trial_timeout`; unlike
    :func:`run_sfi` there is no server path — the store lives on the
    local filesystem and composition is cheaper than transport.
    Returns a :class:`repro.incremental.ComposedCampaign` whose
    ``composed_fraction``/``executed_trials`` fields quantify the work
    the store saved.
    """
    from repro.incremental import SectionStore, run_incremental_campaign

    if isinstance(store, (str, os.PathLike)):
        store = SectionStore.open(os.fspath(store))
    return run_incremental_campaign(
        module,
        store,
        _experiment_config(config, knobs),
        trials=trials,
        externals=externals,
        jobs=campaign_jobs() if jobs is None else jobs,
        min_section_trials=min_section_trials,
        update_store=update_store,
    )
