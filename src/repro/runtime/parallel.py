"""Process-parallel execution of SFI campaigns, hardened against the
failures a long campaign actually meets.

SFI campaigns are embarrassingly parallel Monte-Carlo experiments:
every trial is an independent re-execution of the same module with a
pre-derived fault plan.  Because :func:`repro.runtime.sfi.plan_trial`
keys each trial's randomness off ``(seed, trial_index)`` rather than a
shared sequential RNG, trials can be partitioned across worker
processes in any chunking whatsoever and still reproduce the serial
campaign bit for bit — the merge below only has to reorder results by
trial index.

Each worker is initialised once per process: it unpickles the module
payload, replays the golden run locally (cheaper and simpler than
shipping interpreter state), and then serves trial chunks until the
pool drains.

Resilience (the campaign must outlive its own infrastructure):

* **per-trial wall-clock timeouts** — enforced *inside* the worker via
  ``SIGALRM`` (see :func:`repro.runtime.sfi.call_with_timeout`), so a
  stuck trial yields an ``infra_error`` verdict without poisoning its
  chunk or its worker;
* **worker-crash containment** — a worker dying (OOM kill, segfault,
  deliberate ``SIGKILL``) breaks the whole ``ProcessPoolExecutor``;
  instead of propagating, the engine re-plans the unfinished trials
  and retries them on a fresh pool, up to ``max_pool_retries`` times,
  after which the survivors are marked ``infra_error`` — determinism
  is unaffected because retried chunks re-derive exactly the same
  plans;
* **result streaming** — merged ``(index, result)`` pairs pass through
  an order-restoring buffer (:class:`repro.runtime.journal.
  InOrderJournal`) to ``on_result``, so the campaign journal sees each
  trial as soon as every earlier one has completed — and its bytes
  are the serial run's.  An interrupt flushes whatever is held, out
  of order, so no completed trial is lost.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.runtime.journal import InOrderJournal
from repro.runtime.sfi import (
    CampaignConfig,
    CampaignInterrupted,
    FaultPlan,
    ProgressHook,
    TrialResult,
    infra_error_trial,
)


class ParallelUnavailable(RuntimeError):
    """The campaign cannot cross a process boundary (e.g. closure
    externals that don't pickle); callers fall back to the serial path."""


#: Per-process campaign state installed by :func:`_init_worker`.
_WORKER: dict = {}


def _init_worker(payload: bytes) -> None:
    from repro.runtime.memory import MachineMemory

    state = pickle.loads(payload)
    # Materialize the module's globals exactly once per worker; every
    # trial in every chunk clones this image instead of rebuilding it.
    state["memory_image"] = MachineMemory.pristine(state["module"])
    state["golden"] = state["config"].golden(
        state["module"], state["externals"], state["memory_image"]
    )
    _WORKER.clear()
    _WORKER.update(state)


def run_worker_plan(plan: FaultPlan) -> TrialResult:
    """Execute one pre-derived plan from the installed worker state.

    The single unit of worker-side work, shared by the chunk runner
    below and the campaign service's batch workers
    (:mod:`repro.service.dispatch`) — both install state with
    :func:`_init_worker` and then replay plans through here, which is
    why a served campaign is bit-identical to a pooled one.
    """
    # Looked up at call time, so a wrapper installed on
    # repro.runtime.sfi.run_planned_trial reaches forked workers too.
    from repro.runtime.sfi import run_planned_trial

    state = _WORKER
    return run_planned_trial(
        state["module"], state["golden"], plan, state["config"],
        externals=state["externals"], memory_image=state["memory_image"],
    )


def _run_chunk(plans: Sequence[FaultPlan]) -> Tuple[int, List[Tuple[int, TrialResult]]]:
    return os.getpid(), [
        (plan.trial_index, run_worker_plan(plan)) for plan in plans
    ]


def default_chunk_size(trials: int, jobs: int) -> int:
    """Roughly four chunks per worker: large enough to amortise task
    dispatch, small enough to keep the pool load-balanced."""
    return max(1, math.ceil(trials / (jobs * 4)))


def _chunked(plans: Sequence[FaultPlan], size: int) -> List[List[FaultPlan]]:
    return [list(plans[i:i + size]) for i in range(0, len(plans), size)]


def _pool_context():
    # fork shares the parent's imports and is dramatically cheaper to
    # start; fall back to the platform default (spawn) elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def worker_payload(module: Module, config: CampaignConfig,
                   externals=None) -> bytes:
    """Pickle the per-worker campaign state for :func:`_init_worker`.

    Shared between the pool engine below and the campaign service, so
    a worker initialised by either executes trials identically.
    Raises :class:`ParallelUnavailable` when the campaign cannot cross
    a process boundary.
    """
    try:
        return pickle.dumps(
            {"module": module, "config": config, "externals": externals}
        )
    except Exception as exc:
        raise ParallelUnavailable(str(exc)) from exc


def run_parallel_campaign(
    module: Module,
    plans: Sequence[FaultPlan],
    config: CampaignConfig,
    *,
    externals=None,
    jobs: int = 2,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    max_pool_retries: int = 2,
    on_result: Optional[Callable[[int, TrialResult], None]] = None,
    done_offset: int = 0,
    total: Optional[int] = None,
) -> Tuple[List[TrialResult], Dict[str, int], int]:
    """Fan ``plans`` out over ``jobs`` worker processes.

    Returns ``(results, worker_trials, pool_restarts)``: the trial
    results in ``plans`` order, a per-worker trial tally (keyed
    ``worker-0`` … ``worker-n``, ordered by pid), and the number of
    worker pools rebuilt after a crash.  ``on_result`` sees every
    result in ``plans`` order, exactly as the serial loop streams it;
    only an interrupt flushes held results out of order.
    ``done_offset``/``total`` calibrate the ``progress`` callback when
    this call covers only the un-journaled tail of a resumed campaign.
    Raises :class:`ParallelUnavailable` when the campaign payload cannot
    be pickled across the process boundary.
    """
    payload = worker_payload(module, config, externals)

    size = chunk_size if chunk_size and chunk_size > 0 else default_chunk_size(
        len(plans), jobs
    )
    report_total = total if total is not None else len(plans)
    by_index: Dict[int, TrialResult] = {}
    pid_counts: Dict[int, int] = {}
    pool_restarts = 0
    ordered = InOrderJournal(
        on_result or (lambda index, trial: None),
        [plan.trial_index for plan in plans],
    )

    def merge(pid: int, chunk_results: List[Tuple[int, TrialResult]]) -> None:
        fresh = 0
        for index, trial in chunk_results:
            if index not in by_index:
                fresh += 1
                by_index[index] = trial
                ordered.record(index, trial)
        pid_counts[pid] = pid_counts.get(pid, 0) + len(chunk_results)
        if progress is not None and fresh:
            progress(done_offset + len(by_index), report_total)
    remaining = list(plans)
    for attempt in range(max_pool_retries + 1):
        chunks = _chunked(remaining, size)
        if not chunks:
            break
        workers = max(1, min(jobs, len(chunks)))
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(payload,),
            ) as pool:
                pending = {pool.submit(_run_chunk, chunk) for chunk in chunks}
                try:
                    while pending:
                        done, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in done:
                            pid, chunk_results = future.result()
                            merge(pid, chunk_results)
                except KeyboardInterrupt:
                    # Graceful SIGINT: drop the queue, put the workers
                    # down hard (their in-flight chunks are re-derivable
                    # on resume), and surface everything already merged
                    # — flushed to ``on_result``, held results out of
                    # order, so the journal has all of it on disk.
                    for future in pending:
                        future.cancel()
                    for proc in getattr(pool, "_processes", {}).values():
                        try:
                            proc.terminate()
                        except (OSError, AttributeError):
                            pass
                    pool.shutdown(wait=False, cancel_futures=True)
                    ordered.flush_out_of_order()
                    raise CampaignInterrupted(
                        dict(by_index), report_total
                    ) from None
        except BrokenProcessPool:
            # A worker died mid-campaign (OOM kill, segfault, ...).
            # Everything already merged stays; the unfinished trials are
            # re-planned onto a fresh pool.  Chunks are pure functions
            # of their plans, so a retry cannot diverge from the serial
            # result — it can only finish it.
            pool_restarts += 1
            remaining = [p for p in remaining if p.trial_index not in by_index]
            continue
        remaining = [p for p in remaining if p.trial_index not in by_index]
        if not remaining:
            break
    # Pool retries exhausted (or trials silently lost): the survivors
    # get an explicit infra_error verdict instead of poisoning the
    # campaign with an exception after hours of completed work.  They
    # fill exactly the gaps the buffer is holding back for, so the
    # journal still comes out in index order.
    for plan in remaining:
        trial = infra_error_trial()
        by_index[plan.trial_index] = trial
        ordered.record(plan.trial_index, trial)
    if progress is not None and remaining:
        progress(done_offset + len(by_index), report_total)
    worker_trials = {
        f"worker-{slot}": count
        for slot, (_pid, count) in enumerate(sorted(pid_counts.items()))
    }
    return (
        [by_index[plan.trial_index] for plan in plans],
        worker_trials,
        pool_restarts,
    )
