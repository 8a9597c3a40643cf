"""The benchmark's own tests: ``python -m pytest perfbench -q``.

Tiny runs of every workload (a few trials, a two-workload sweep) check
that each metric is emitted by name with its unit; the checker tests
feed corrupted results to the correctness checks.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, manifest, speed  # noqa: E402
from perfbench.spans import TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def test_benchmark_json_within_format_limits():
    spec = manifest.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", manifest.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    specs = manifest.PER_LAYER if trace else manifest.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m.name: m.unit for m in specs
    }
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
    elif workload == "inject-gzip":
        assert metrics["sfi.accounted_frac"] >= 0.95
    elif workload == "inject-pool":
        assert metrics["parallel.worker_busy_s"] > 0
        assert metrics["journal.records"] > 0
    else:
        assert metrics["pipeline.profile_runs"] == 2


def test_bare_directory_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inject-gzip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


@pytest.fixture(scope="module")
def gzip_campaign(tmp_path_factory):
    from perfbench.workloads import InjectRunner

    runner = InjectRunner("inject-gzip", 3, str(tmp_path_factory.mktemp("s")), True)
    runner.setup()
    return runner, runner.unit(0)


def test_laps_are_normalized_by_the_kernel_runs_near_them():
    nominal = speed.NOMINAL_S
    laps = [(10.0, 11.0, 1.0), (20.0, 20.5, 0.4)]
    runs = [(9.9, 2 * nominal), (11.2, 4 * nominal), (15.0, 100 * nominal),
            (20.6, nominal)]
    # The first lap sees the runs at 9.9 and 11.2 (mean 3x nominal), the
    # second only the one at 20.6; the run at 15.0 is near neither.
    assert speed.at_reference_speed(laps, runs) == pytest.approx([1 / 3, 0.4])


def test_campaign_times_every_trial_and_unpatches(gzip_campaign):
    from repro.runtime import sfi

    runner, unit = gzip_campaign
    assert len(unit.op_ms) == unit.ops == runner.cfg.trials
    assert 0 < unit.busy <= unit.wall and unit.seconds > 0
    assert not hasattr(sfi.run_planned_trial, "__wrapped__")


def test_corrupted_trial_result_fails_the_check(gzip_campaign):
    runner, unit = gzip_campaign
    trials = unit.payload["result"].trials
    golden = runner.golden("reference")
    seed = runner.plan_seed(0)
    assert checks.check_trials(runner, golden, seed, trials, [0]) == []
    corrupted = list(trials)
    corrupted[0] = dataclasses.replace(trials[0], wasted_work=trials[0].wasted_work + 1)
    assert checks.check_trials(runner, golden, seed, corrupted, [0])


def test_corrupted_journal_fails_the_check(tmp_path):
    from perfbench.workloads import InjectRunner

    runner = InjectRunner("inject-pool", 3, str(tmp_path), True)
    runner.setup()
    unit = runner.unit(0)
    path, meta = unit.payload["journal"], unit.payload["metadata"]
    trials = unit.payload["result"].trials
    assert checks.check_journal(path, meta, trials) == []
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:-1]))
    assert checks.check_journal(path, meta, trials)


def test_fig5_check_compares_with_the_csv():
    csv_path = str(ROOT / "results" / "fig5.csv")
    rows = (ROOT / "results" / "fig5.csv").read_text().splitlines()[1:]
    fractions = {}
    for row in rows:
        name, pmin, *values = row.split(",")
        if name == "cjpeg":
            key = None if pmin == "none" else float(pmin)
            fractions[(name, key)] = tuple(float(v) for v in values)
    assert checks.check_fig5(fractions, csv_path, ["cjpeg"]) == []
    fractions[("cjpeg", 0.0)] = (1.0, 0.0, 0.0)
    assert checks.check_fig5(fractions, csv_path, ["cjpeg"])


def test_tracer_restores_every_wrapped_function(tmp_path):
    import importlib

    originals = []
    for _, module_name, path in TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split(".")[:-1]:
            owner = getattr(owner, part)
        originals.append((owner, path.split(".")[-1],
                          owner.__dict__[path.split(".")[-1]]))
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in originals)
