"""Wall-clock benchmark: campaign-service dispatch vs the in-process
pool, and work-stealing vs static sharding.

Three measurements:

* **dispatch overhead** — the same campaign through
  ``run_campaign(jobs=N)`` (the in-process pool) and through a
  supervised :class:`~repro.service.CampaignTask` (the service's
  batch dispatcher).  The service adds per-batch round-trips and
  health bookkeeping; ``--check`` bounds that tax at 3x.
* **work-stealing vs static sharding** — a deliberately skewed batch
  list (one straggler batch holding half the trials plus many 1-trial
  batches).  Static sharding pins batches round-robin, so the
  straggler's slot also queues half the small batches behind it;
  work-stealing lets the other workers drain them.  Because trial
  cost is uniform by construction, the *makespan* — the largest
  per-worker trial count — is a machine-independent measure of each
  schedule (wall-clock only shows the gap when the host actually has
  a core per worker); ``--check`` requires stealing's makespan to
  beat static's.
* **bit-identity** — the served journal must be byte-identical to the
  serial one-shot journal (always enforced, even without ``--check``;
  this is the invariant that makes the other numbers meaningful).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        [--trials 96] [--workers 2] [--check]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.ir.builder import IRBuilder  # noqa: E402
from repro.ir.module import Module  # noqa: E402
from repro.ir.printer import module_to_text  # noqa: E402
from repro.runtime import (  # noqa: E402
    CampaignConfig,
    CampaignJournal,
    DetectionModel,
    run_campaign,
)
from repro.service import (  # noqa: E402
    BatchState,
    CampaignSpec,
    CampaignTask,
)


def build_workload(n: int = 400) -> Module:
    """A counted loop heavy enough that trial cost dwarfs dispatch."""
    module = Module("bench")
    arr = module.add_global("arr", n)
    func = module.add_function("main")
    b = IRBuilder(func)
    i = b.fresh("i")
    total = b.fresh("sum")
    b.block("entry")
    b.mov(0, i)
    b.mov(0, total)
    b.jmp("header")
    b.block("header")
    cond = b.cmp("slt", i, n)
    b.br(cond, "body", "exit")
    b.block("body")
    sq = b.mul(i, i)
    b.store(arr, i, sq)
    b.add(total, sq, total)
    b.add(i, 1, i)
    b.jmp("header")
    b.block("exit")
    b.ret(total)
    return module


def serial_reference(module: Module, spec: CampaignSpec, path: str) -> float:
    start = time.perf_counter()
    with CampaignJournal(path) as journal:
        journal.write_header(spec.config.header(module))
        run_campaign(
            module, spec.config, trials=spec.trials,
            on_result=journal.record,
        )
    return time.perf_counter() - start


def pool_run(module: Module, spec: CampaignSpec, jobs: int) -> float:
    start = time.perf_counter()
    run_campaign(module, spec.config, trials=spec.trials, jobs=jobs)
    return time.perf_counter() - start


def served_run(spec: CampaignSpec, path: str, workers: int,
               **kwargs) -> tuple:
    task = CampaignTask("bench", spec, path, workers=workers, **kwargs)
    start = time.perf_counter()
    asyncio.run(task.run())
    elapsed = time.perf_counter() - start
    if task.state != "completed":
        raise RuntimeError(f"benchmark campaign ended {task.state!r}: "
                           f"{task.error}")
    return task, elapsed


def skewed_batches(trials: int, workers: int, static: bool) -> list:
    """One straggler batch holding half the trials, the rest size 1."""
    big = tuple(range(trials // 2))
    small = [(i,) for i in range(trials // 2, trials)]
    indices = [big] + small
    return [
        BatchState(
            batch_id=number, indices=chunk,
            assigned_slot=(number % workers) if static else None,
        )
        for number, chunk in enumerate(indices)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=96,
                        help="campaign size per measurement (default 96)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless overhead <= 3x, stealing beats "
                             "static, and journals are byte-identical")
    args = parser.parse_args()

    module = build_workload()
    spec = CampaignSpec(
        module_text=module_to_text(module) + "\n",
        config=CampaignConfig(
            output_objects=("arr",), seed=11, detector=DetectionModel(dmax=60),
        ),
        trials=args.trials,
    )

    with tempfile.TemporaryDirectory(prefix="encore-bench-svc-") as tmp:
        serial_path = f"{tmp}/serial.jsonl"
        served_path = f"{tmp}/served.jsonl"
        serial_elapsed = serial_reference(module, spec, serial_path)
        pool_elapsed = pool_run(module, spec, args.workers)
        _, served_elapsed = served_run(spec, served_path, args.workers)
        identical = (
            Path(serial_path).read_bytes() == Path(served_path).read_bytes()
        )

        steal_batches = skewed_batches(spec.trials, args.workers,
                                       static=False)
        static_batches = skewed_batches(spec.trials, args.workers,
                                        static=True)
        steal_task, steal_elapsed = served_run(
            spec, f"{tmp}/steal.jsonl", args.workers, batches=steal_batches)
        static_task, static_elapsed = served_run(
            spec, f"{tmp}/static.jsonl", args.workers,
            batches=static_batches, static_sharding=True)
        steal_makespan = max(
            w["trials_done"] for w in steal_task.monitor.snapshot())
        static_makespan = max(
            w["trials_done"] for w in static_task.monitor.snapshot())
        skew_identical = (
            Path(f"{tmp}/steal.jsonl").read_bytes()
            == Path(f"{tmp}/static.jsonl").read_bytes()
            == Path(serial_path).read_bytes()
        )

    overhead = served_elapsed / max(pool_elapsed, 1e-9)
    stealing_gain = static_makespan / max(steal_makespan, 1)
    rate = spec.trials / max(served_elapsed, 1e-9)

    print(f"trials:                  {spec.trials}")
    print(f"workers:                 {args.workers}")
    print(f"serial:                  {serial_elapsed:.2f}s")
    print(f"pool (run_campaign):     {pool_elapsed:.2f}s")
    print(f"service dispatcher:      {served_elapsed:.2f}s "
          f"({rate:.1f} trials/sec)")
    print(f"dispatch overhead:       {overhead:.2f}x vs pool")
    print(f"skewed, work-stealing:   {steal_elapsed:.2f}s, makespan "
          f"{steal_makespan} trials")
    print(f"skewed, static shards:   {static_elapsed:.2f}s, makespan "
          f"{static_makespan} trials")
    print(f"stealing gain:           {stealing_gain:.2f}x (by makespan)")
    print(f"served == serial bytes:  {identical}")
    print(f"skewed runs identical:   {skew_identical}")

    if not identical or not skew_identical:
        print("FAIL: served journal diverged from the serial one-shot "
              "journal", file=sys.stderr)
        return 1
    if args.check:
        failed = False
        if overhead > 3.0:
            print(f"FAIL: dispatch overhead {overhead:.2f}x exceeds the "
                  f"3x budget", file=sys.stderr)
            failed = True
        if steal_makespan >= static_makespan:
            print(f"FAIL: work-stealing makespan ({steal_makespan} "
                  f"trials) did not beat static sharding "
                  f"({static_makespan} trials) on the skewed workload",
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print("CHECK PASSED: bounded dispatch overhead, stealing beats "
              "static, byte-identical journals")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
