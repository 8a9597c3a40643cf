"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload inject-gzip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

``--trace 0`` measures the end-to-end metrics, every time at reference
host speed (see ``speed.py``).  ``--trace 1`` wraps
each layer's public entry points (see ``spans.py``) for the set-up and
for half the units, alternating traced and untraced units, and reports
the per-layer metrics.  Either way the run ends with the correctness
checks, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-up is sampled in SETUP_RUNS fresh processes, or in as many as
#: fit in SETUP_SECONDS, but at least SETUP_MIN_RUNS.
SETUP_RUNS = 11
SETUP_SECONDS = 4.0
SETUP_MIN_RUNS = 5

#: Workload-specific names for the shared end-to-end metrics.
DISPLAY = {
    "inject-gzip": {"ops_per_s": ("trials_per_s", "trials/s"),
                    "op_ms.p50": ("trial_ms.p50", "ms"),
                    "op_ms.p90": ("trial_ms.p90", "ms")},
    "inject-pool": {"ops_per_s": ("trials_per_s", "trials/s"),
                    "op_ms.p50": ("trial_ms.p50", "ms"),
                    "op_ms.p90": ("trial_ms.p90", "ms")},
    "compile-sweep": {"ops_per_s": ("compiles_per_s", "compiles/s"),
                      "op_ms.p50": ("compile_ms.p50", "ms"),
                      "op_ms.p90": ("compile_ms.p90", "ms")},
}


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # The benchmark defines its workloads; the caller's engine and
    # analysis-jobs defaults must not change them.
    for name in ("ENCORE_ENGINE", "ENCORE_ANALYSIS_JOBS"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}")


def timed_loop(runner, seconds: float) -> list:
    """Closed loop: start unit k+1 once unit k is done, until ``seconds``
    of units have run, and at least one."""
    units = []
    while not units or sum(unit.wall for unit in units) < seconds:
        units.append(runner.unit(len(units)))
    return units


def setup_seconds(workload: str, tiny: bool) -> list:
    """Set-up times, each of a fresh process from its start, at
    reference speed: the child times the calibration kernel once its
    set-up is done."""
    from perfbench.speed import NOMINAL_S

    samples = []
    start = time.monotonic()
    while True:
        begin = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        done, kernel_s = map(float, child.stdout.split()[-2:])
        samples.append((done - begin) * NOMINAL_S / kernel_s)
        if tiny or len(samples) == SETUP_RUNS:
            return samples
        if (len(samples) >= SETUP_MIN_RUNS
                and time.monotonic() - start >= SETUP_SECONDS):
            return samples


def peak_rss_mb(units) -> float:
    """This process's peak RSS plus the largest worker's per worker."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = max(unit.jobs for unit in units)
    largest = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (parent + largest * workers) / 1024


def end_to_end(units, setup: list, rss: float) -> dict:
    samples = [ms for unit in units for ms in unit.op_ms]
    deciles = statistics.quantiles(samples, n=10)
    return {
        "ops_per_s": sum(u.ops for u in units) / sum(u.seconds for u in units),
        "op_ms.p50": statistics.median(samples),
        "op_ms.p90": deciles[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def run_workload(args) -> int:
    from perfbench import manifest
    from perfbench.workloads import RUNNERS

    if args.setup_only:
        from perfbench.speed import kernel_seconds

        RUNNERS[args.workload](args.workload, args.seed, "", args.tiny).setup()
        print(time.monotonic(), kernel_seconds(repeat=10))
        return 0

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        runner = RUNNERS[args.workload](args.workload, args.seed, scratch, args.tiny)
        if args.trace:
            metrics, units = traced_run(runner, args.seconds, scratch)
            specs = manifest.PER_LAYER
        else:
            runner.setup()
            units = timed_loop(runner, args.seconds)
            rss = peak_rss_mb(units)
            setup = setup_seconds(args.workload, args.tiny)
            metrics = end_to_end(units, setup, rss)
            specs = manifest.END_TO_END
        problems = runner.check(units)
        attempted = sum(u.ops for u in units)
        failed = sum(u.failed for u in units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} units={len(units)}")
    names = DISPLAY[args.workload]
    for spec in specs:
        shown, unit = names.get(spec.name, (spec.name, spec.unit))
        print(f"{shown:<34} {metrics[spec.name]:.6g} {unit}")
    print(f"{'failed_frac':<34} {failed / max(attempted, 1):.6g} frac")
    wall_rate = sum(u.ops for u in units) / sum(u.busy for u in units)
    print(f"{'wall ' + names.get('ops_per_s', ('ops_per_s',))[0]:<34} "
          f"{wall_rate:.6g} (not normalized to reference speed)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"# checks: {'ok' if not problems else f'{len(problems)} failed'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec.name: {"value": metrics[spec.name], "unit": spec.unit}
            for spec in specs
        },
    }))
    return 0 if not problems else 1


def traced_run(runner, seconds: float, scratch: str):
    """Set up traced, then run each unit twice, traced and untraced, in
    ABBA order (T0 U0 U1 T1 T2 U2 ...), so that drift over the run falls
    on both halves alike, until ``seconds`` of units have run.

    Counts come from the set-up and the first unit only; ``wall`` is the
    traced time, set-up included, less the calibration kernel's.
    """
    from perfbench.layers import layer_metrics
    from perfbench.spans import Tracer

    spool = os.path.join(scratch, "spans")
    os.mkdir(spool)
    tracer = Tracer(spool)
    traced, untraced = [], []
    wall = 0.0
    position = 0
    while position % 2 or sum(u.wall for u in traced + untraced) < seconds:
        trace = position % 4 in (0, 3)
        if trace:
            tracer.install()
        try:
            if position == 0:
                begin = time.perf_counter()
                runner.setup()
                wall += time.perf_counter() - begin
            unit = runner.unit(position // 2)
        finally:
            if trace:
                tracer.uninstall()
        tracer.counting = False
        if trace:
            traced.append(unit)
            wall += unit.busy
        else:
            untraced.append(unit)
        position += 1
    metrics = layer_metrics(tracer.spans(), tracer.root_pid, wall, traced,
                            untraced, runner)
    return metrics, traced + untraced


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    from perfbench import manifest

    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in manifest.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--tiny"] if args.tiny else []),
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed work (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny campaigns and a two-workload sweep, for "
                             "the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from perfbench import manifest

    if args.seconds is None:
        args.seconds = manifest.RUN_SECONDS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in manifest.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(manifest.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
