"""Correctness checks.  Each returns a list of problems; empty means pass.

They run outside the timed region.  The reference interpreter is the
specification, so every check that re-executes work does so on
``engine="reference"``.
"""

from __future__ import annotations

import csv
import json
import random
from typing import Dict, List, Optional, Sequence

from repro.encore import RegionStatus
from repro.runtime import sfi
from repro.runtime.journal import load_journal


def sample_indices(bench_seed: int, plan_seed: int, trials: int, size: int) -> List[int]:
    """The seeded sample of a campaign's trials that is re-executed."""
    rng = random.Random(f"perfbench:{bench_seed}:{plan_seed}")
    return sorted(rng.sample(range(trials), min(size, trials)))


def check_trials(
    ctx, golden_ref, plan_seed: int, results: Sequence, indices: Sequence[int],
) -> List[str]:
    """Re-execute the sampled plans on the reference engine.

    ``ctx`` is an :class:`~perfbench.workloads.InjectRunner`: it knows
    the module, its entry point and the campaign's fault knobs.
    """
    problems = []
    for index in indices:
        plan = sfi.plan_trial(
            plan_seed, index, golden_ref.events, ctx.detector,
            1, ctx.cfg.recovery_faults, ctx.cfg.metadata_faults,
            ctx.cfg.cf_faults,
        )
        expected = sfi.run_planned_trial(
            ctx.module, golden_ref, plan,
            function=ctx.built.entry, args=ctx.built.args,
            output_objects=ctx.built.output_objects,
            externals=ctx.built.externals,
            metadata_guard=ctx.cfg.guard, engine="reference",
            cfe_detector=ctx.cfg.cfe_detector,
        )
        if results[index] != expected:
            problems.append(
                f"campaign seed {plan_seed} trial {index}: {results[index]} "
                f"!= reference {expected}"
            )
    return problems


def check_journal(path: str, metadata: Dict, results: Sequence) -> List[str]:
    """``load_journal`` must give back the campaign, index for index."""
    header, completed = load_journal(path)
    problems = []
    if header != metadata:
        problems.append(f"{path}: header {header} != {metadata}")
    if sorted(completed) != list(range(len(results))):
        problems.append(f"{path}: indices {sorted(completed)} are not 0..{len(results) - 1}")
    problems.extend(
        f"{path}: record {index} {completed[index]} != {trial}"
        for index, trial in enumerate(results)
        if index in completed and completed[index] != trial
    )
    return problems


def journal_order(path: str) -> Dict[str, int]:
    """Records, bytes, and records written after a higher index."""
    records = out_of_order = size = 0
    highest = -1
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            size += len(line.encode("utf-8"))
            record = json.loads(line)
            if record.get("kind") != "trial":
                continue
            records += 1
            if record["index"] < highest:
                out_of_order += 1
            highest = max(highest, record["index"])
    return {"records": records, "bytes": size, "out_of_order": out_of_order}


def _reference_run(module, built):
    return sfi.golden_run(
        module, built.entry, built.args, built.output_objects,
        externals=built.externals, engine="reference",
    )


def sweep_facts(payload: Dict) -> Dict:
    """What a sweep computed, cheap enough to compare sweep to sweep."""
    facts = {}
    for key, result in payload["results"].items():
        report = result.report
        facts[key] = (
            report.module.instruction_count(),
            tuple(sorted(
                (r.func, r.header, tuple(sorted(r.blocks)))
                for r in report.selected_regions
            )),
            tuple(sorted(
                (s.name, f) for s, f in report.region_status_fractions().items()
            )),
            report.estimated_overhead(),
        )
    return {"compiles": facts, "plain": payload["plain"]}


def check_sweep(specs: Sequence, units: Sequence, csv_path: str,
                names: Optional[Sequence[str]] = None) -> List[str]:
    """Check the first sweep in depth, and every later one's facts
    against it.

    Every instrumented module of the first sweep, run on the reference
    engine, must produce the uninstrumented module's return value and
    outputs; each Fig 7 plain run must equal its reference run exactly;
    the Fig 5 fractions must equal ``csv_path``.
    """
    first = units[0].payload
    problems = []
    for spec in specs:
        built = spec.build()
        plain_ref = _reference_run(built.module, built)
        modules = {}
        for (name, figure, _), result in first["results"].items():
            if name == spec.name:
                modules.setdefault(id(result.report.module), (result, []))[1].append(figure)
        for result, figures in modules.values():
            run = _reference_run(result.report.module, built)
            if (run.value, run.output) != (plain_ref.value, plain_ref.output):
                problems.append(
                    f"{spec.name}: an instrumented module returns {run.value}, "
                    f"the uninstrumented one {plain_ref.value} (outputs equal: "
                    f"{run.output == plain_ref.output})"
                )
            if "fig7" in figures and first["plain"].get(spec.name) != run:
                problems.append(
                    f"{spec.name}: the Fig 7 plain run differs from the "
                    "reference engine"
                )
    fractions = {}
    for (name, figure, pmin), result in first["results"].items():
        if figure == "fig5":
            fr = result.report.region_status_fractions()
            fractions[(name, pmin)] = (
                fr[RegionStatus.IDEMPOTENT], fr[RegionStatus.NON_IDEMPOTENT],
                fr[RegionStatus.UNKNOWN],
            )
    problems += check_fig5(fractions, csv_path, names)
    for unit in units[1:]:
        if unit.payload["facts"] != first["facts"]:
            problems.append(f"sweep {unit.key} computed other results than sweep 0")
    return problems


def check_fig5(fractions: Dict, csv_path: str,
               names: Optional[Sequence[str]] = None) -> List[str]:
    """The sweep's Fig 5 fractions equal the committed ``results/fig5.csv``.

    ``fractions`` maps (benchmark, pmin) to (idempotent, non_idempotent,
    unknown); ``names`` restricts the comparison to those benchmarks.
    """
    with open(csv_path, encoding="utf-8") as handle:
        expected = {
            (row["benchmark"], row["pmin"]): (
                float(row["idempotent"]), float(row["non_idempotent"]),
                float(row["unknown"]),
            )
            for row in csv.DictReader(handle)
            if names is None or row["benchmark"] in names
        }
    measured = {
        (name, "none" if pmin is None else f"{pmin:g}"): value
        for (name, pmin), value in fractions.items()
    }
    if measured == expected:
        return []
    differing = sorted(
        key for key in set(measured) | set(expected)
        if measured.get(key) != expected.get(key)
    )
    return [f"fig5 fractions differ from {csv_path} at {differing[:5]}"]
