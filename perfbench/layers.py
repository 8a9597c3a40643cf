"""Per-layer metrics of a traced phase, from its spans and units.

Self times are reported per second of traced wall time (unit ``s/s``),
summed over every process, so a layer that workers keep busy can read
above 1.  A layer a workload bypasses reads 0.  Counts come from the
counting window only (the traced set-up and the first traced unit),
so they repeat exactly for a given seed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from perfbench.manifest import PER_LAYER

PASSES = ("profile", "idempotence", "merge", "regions", "alias", "selection",
          "instrument")

#: Span names whose self time is one per-layer ``s/s`` metric each.
SELF_TIME = {
    "pipeline.compile": "pipeline.compile_s",
    "engine.decode": "engine.decode_s",
    "memory.pristine": "memory.pristine_s",
    "sfi.golden": "sfi.golden_s",
    "sfi.plan": "sfi.plan_s",
    "sfi.trial": "sfi.trial_busy_s",
    "journal.record": "journal.record_s",
}

#: The campaign parts whose self time should cover a serial campaign.
ACCOUNTED = ("sfi.trial", "sfi.golden", "sfi.plan", "memory.pristine")


def _within(span: Dict, units: Sequence) -> bool:
    return any(u.start <= span["start"] and span["end"] <= u.end for u in units)


def layer_metrics(spans: List[Dict], root_pid: int, wall: float,
                  traced: Sequence, untraced: Sequence, runner) -> Dict[str, float]:
    metrics: Dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    self_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        self_time[span["name"]] += span["self"]
    for name, metric in SELF_TIME.items():
        metrics[metric] = self_time[name] / wall

    compiles = [s for s in spans if s["name"] == "pipeline.compile"]
    for name in PASSES:
        metrics[f"pipeline.pass.{name}_s"] = sum(
            s["passes"].get(name, (0.0, 0, 0))[0] for s in compiles
        ) / wall
    counted = [s for s in compiles if s["count"]]
    profile = [s["passes"].get("profile", (0.0, 0, 0)) for s in counted]
    metrics["pipeline.profile_runs"] = sum(runs - hits for _, runs, hits in profile)
    metrics["pipeline.profile_cached"] = sum(hits for _, _, hits in profile)
    metrics["pipeline.insts_after"] = sum(s["insts"] for s in counted)

    decodes = [s for s in spans if s["name"] == "engine.decode" and s["count"]]
    for kind in ("module_hit", "fingerprint_hit"):
        metrics[f"engine.decode.{kind}s"] = sum(
            1 for s in decodes if s["kind"] == kind
        )
    goldens = [s for s in spans if s["name"] == "sfi.golden"]
    golden_self = sum(s["self"] for s in goldens)
    if golden_self:
        metrics["engine.plain_steps_per_s"] = (
            sum(s["events"] for s in goldens) / golden_self
        )

    if runner.campaigns:
        metrics["sfi.golden_steps_per_s"] = (
            sum(runner.trial_events(u) for u in traced) / self_time["sfi.trial"]
        )
        campaign_wall = sum(u.busy for u in traced)
        accounted = sum(
            s["self"] for s in spans
            if s["name"] in ACCOUNTED and _within(s, traced)
        )
        metrics["sfi.accounted_frac"] = accounted / campaign_wall
        metrics["parallel.first_result_frac"] = sum(
            u.first_result / u.busy for u in traced
        ) / len(traced)
        metrics["parallel.imbalance"] = sum(
            _imbalance(u.payload["result"].worker_trials) for u in traced
        ) / len(traced)
        metrics.update(runner.counts(traced[0]))

    # Worker busy time: the top-level spans of every worker process.
    worker_busy = sum(
        s["end"] - s["start"] for s in spans
        if s["pid"] != root_pid and s["parent"] is None
    )
    metrics["parallel.worker_busy_s"] = worker_busy / wall
    pooled = [u for u in traced if u.jobs > 1]
    if pooled:
        metrics["parallel.idle_frac"] = 1.0 - worker_busy / sum(
            u.jobs * u.busy for u in pooled
        )

    metrics["trace.overhead"] = _rate(traced) / _rate(untraced)
    return metrics


def _imbalance(worker_trials: Dict[str, int]) -> float:
    counts = list(worker_trials.values())
    return max(counts) / (sum(counts) / len(counts)) if counts else 0.0


def _rate(units: Sequence) -> float:
    return sum(u.ops for u in units) / sum(u.seconds for u in units)
