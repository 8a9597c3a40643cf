"""Sharded, supervised campaign execution for ``repro serve``.

One :class:`CampaignTask` drives one submitted campaign end to end:

* the module is parsed and its golden run replayed off the event loop
  (``asyncio.to_thread``), the trial range planned with the same
  seed-keyed substreams as every other campaign engine, and sharded
  into batches (:func:`repro.service.health.shard_batches`);
* a pool of supervised worker *processes* — initialised with the exact
  payload :func:`repro.runtime.parallel.worker_payload` builds for the
  CLI's process pool — pulls batches as it drains them
  (**work-stealing**: a straggler delays only its own batch, never an
  idle peer), executing each plan through
  :func:`repro.runtime.parallel.run_worker_plan`;
* every finished trial streams back over the worker's pipe, which
  doubles as its **heartbeat**; results feed the live aggregates and an
  in-order hold-back journal
  (:class:`repro.runtime.journal.InOrderJournal`) whose bytes are
  identical to the journal of a one-shot serial ``inject`` run — the
  invariant ``tests/test_service.py`` and the CI smoke job enforce;
* a watchdog kills workers whose heartbeat lapses, an ``add_reader``
  EOF catches workers that died outright (SIGKILL, OOM, segfault); in
  both cases the in-flight batch re-queues with bounded exponential
  backoff and the slot restarts.  A batch that fails ``max_retries``
  times quarantines — its unfinished trials record ``infra_error`` and
  the campaign *completes*, degraded but honest, instead of hanging.

Determinism: trials are pure functions of ``(seed, trial_index)``, so
retries, stealing, and restarts can reorder work but never change it —
a served campaign that converges is bit-identical to the serial CLI
run by construction, and a SIGKILLed worker costs wall-clock only.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ir import parse_module, verify_module
from repro.runtime.journal import CampaignJournal, InOrderJournal
from repro.runtime.memory import MachineMemory
from repro.runtime.parallel import _pool_context, worker_payload
from repro.runtime.sfi import (
    OUTCOMES,
    CampaignConfig,
    CampaignResult,
    FaultPlan,
    TrialResult,
    infra_error_trial,
)
from repro.service.health import (
    BATCH_DONE,
    BATCH_PENDING,
    BATCH_QUARANTINED,
    BATCH_RUNNING,
    WORKER_BUSY,
    WORKER_DEAD,
    WORKER_IDLE,
    BatchState,
    ExponentialBackoff,
    HealthMonitor,
    default_batch_size,
    shard_batches,
)

#: Campaign lifecycle states (terminal: completed/failed/cancelled/
#: interrupted).
QUEUED = "queued"
STARTING = "starting"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

TERMINAL_STATES = (COMPLETED, FAILED, CANCELLED, INTERRUPTED)


class SpecError(ValueError):
    """The submitted campaign spec is invalid."""


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A fault-injection campaign as submitted over the API.

    ``config`` is the same :class:`~repro.runtime.sfi.CampaignConfig`
    the one-shot ``inject`` run builds — the service promises that a
    spec and the equivalent CLI invocation produce byte-identical
    journals.  On the wire the spec is one flat JSON object: the
    config's keys (:meth:`CampaignConfig.to_json`) next to the fields
    below.  The module travels as textual IR (the printer/parser
    fixpoint keeps its fingerprint stable across the wire).
    """

    module_text: str
    config: CampaignConfig = CampaignConfig()
    trials: int = 100
    #: Trials per batch (``None``: auto — eight batches per worker).
    batch_size: Optional[int] = None
    #: Journal path on the server (``None``: under the server's
    #: journal directory, named by campaign id).
    journal: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.module_text.strip():
            raise SpecError("module_text is empty")
        if self.trials < 0:
            raise SpecError("trials must be non-negative")
        if self.batch_size is not None and self.batch_size <= 0:
            raise SpecError("batch_size must be positive")

    def to_json(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self) if f.name != "config"}
        data.update(self.config.to_json())
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise SpecError("campaign spec must be a JSON object")
        own = {f.name for f in dataclasses.fields(cls)} - {"config"}
        unknown = sorted(set(data) - own - set(CampaignConfig().to_json()))
        if unknown:
            raise SpecError(f"unknown spec field(s): {', '.join(unknown)}")
        if "module_text" not in data:
            raise SpecError("spec is missing module_text")
        try:
            config = CampaignConfig.from_json(
                {k: v for k, v in data.items() if k not in own}
            )
            return cls(config=config,
                       **{k: v for k, v in data.items() if k in own})
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from None


# -- worker protocol --------------------------------------------------
#
# Parent -> child: ``(batch_id, [FaultPlan, ...])`` or ``None`` (stop).
# Child -> parent: ``("ready", pid)`` once initialised,
#                  ``("trial", batch_id, index, result_dict)`` per trial
#                  (the heartbeat), ``("batch_done", batch_id)`` per
#                  batch, ``("init_error", pid, detail)`` on setup
#                  failure.


def _service_worker_main(payload: bytes, conn) -> None:
    """Child-process entry: install campaign state, serve batches."""
    from repro.runtime.parallel import _init_worker, run_worker_plan

    # The parent owns SIGINT/SIGTERM policy; a Ctrl-C against the
    # server must not tear workers out from under the dispatcher.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _init_worker(payload)
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send(("init_error", os.getpid(), repr(exc)))
        except (OSError, BrokenPipeError):
            pass
        return
    try:
        conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message is None:
                return
            batch_id, plans = message
            for plan in plans:
                result = run_worker_plan(plan)
                conn.send(
                    ("trial", batch_id, plan.trial_index,
                     dataclasses.asdict(result))
                )
            conn.send(("batch_done", batch_id))
    except (EOFError, OSError, BrokenPipeError):
        return  # parent went away; nothing to clean up


@dataclasses.dataclass
class _WorkerHandle:
    slot: int
    process: multiprocessing.process.BaseProcess
    conn: Any  # multiprocessing.connection.Connection
    reader_installed: bool = False


class CampaignTask:
    """One submitted campaign: state machine + dispatcher.

    ``run()`` is the whole lifecycle; everything else is observation
    (``status()``) or control (``cancel()``, ``drain()``).
    """

    kind = "sfi"

    def __init__(
        self,
        campaign_id: str,
        spec: CampaignSpec,
        journal_path: str,
        workers: int = 2,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 3,
        backoff: Optional[ExponentialBackoff] = None,
        poll_interval: float = 0.05,
        static_sharding: bool = False,
        max_worker_restarts: Optional[int] = None,
        chaos_kill_after: Optional[int] = None,
        batches: Optional[List[BatchState]] = None,
    ) -> None:
        self.campaign_id = campaign_id
        self.spec = spec
        self.journal_path = journal_path
        self.workers = max(1, workers)
        self.max_retries = max_retries
        self.backoff = backoff or ExponentialBackoff()
        self.poll_interval = poll_interval
        self.static_sharding = static_sharding
        self.max_worker_restarts = (
            max_worker_restarts if max_worker_restarts is not None
            else self.workers * 4
        )
        self.chaos_kill_after = chaos_kill_after
        self._preset_batches = batches

        self.state = QUEUED
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.elapsed: float = 0.0
        self.monitor = HealthMonitor(heartbeat_timeout=heartbeat_timeout)
        self.results: Dict[int, TrialResult] = {}
        self.outcome_counts: Dict[str, int] = {o: 0 for o in OUTCOMES}
        self.batches: List[BatchState] = []
        self.quarantined_batches = 0
        self.worker_restarts = 0
        self.done_event = asyncio.Event()
        self.result: Optional[CampaignResult] = None

        self._handles: Dict[int, _WorkerHandle] = {}
        self._events: "asyncio.Queue[Tuple]" = asyncio.Queue()
        self._plans: List[FaultPlan] = []
        self._payload: Optional[bytes] = None
        self._journal: Optional[CampaignJournal] = None
        self._ordered: Optional[InOrderJournal] = None
        self._stop_requested: Optional[str] = None
        self._next_slot = 0
        self._chaos_armed = chaos_kill_after is not None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- observation --------------------------------------------------

    @property
    def trials_total(self) -> int:
        return self.spec.trials

    @property
    def trials_done(self) -> int:
        return len(self.results)

    def aggregates(self) -> Dict[str, Any]:
        """Live campaign statistics (the dashboard payload)."""
        done = self.trials_done
        counts = {o: n for o, n in self.outcome_counts.items() if n}
        from repro.runtime.sfi import COVERED_OUTCOMES

        covered = sum(self.outcome_counts[o] for o in COVERED_OUTCOMES)
        elapsed = self._elapsed_now()
        return {
            "trials_done": done,
            "trials_total": self.trials_total,
            "outcomes": counts,
            "covered_fraction": (covered / done) if done else 0.0,
            "infra_errors": self.outcome_counts.get("infra_error", 0),
            "throughput_trials_per_s": (
                round(done / elapsed, 2) if elapsed > 0 else 0.0
            ),
            "elapsed_s": round(elapsed, 3),
        }

    def _elapsed_now(self) -> float:
        if self.started_monotonic is None:
            return 0.0
        if self.state in TERMINAL_STATES:
            return self.elapsed
        return time.monotonic() - self.started_monotonic

    def status(self) -> Dict[str, Any]:
        batch_states: Dict[str, int] = {}
        for batch in self.batches:
            batch_states[batch.status] = batch_states.get(batch.status, 0) + 1
        return {
            "id": self.campaign_id,
            "kind": self.kind,
            "state": self.state,
            "error": self.error,
            "journal": self.journal_path,
            "aggregates": self.aggregates(),
            "batches": batch_states,
            "quarantined_batches": self.quarantined_batches,
            "worker_restarts": self.worker_restarts,
            "workers": self.monitor.snapshot(),
        }

    # -- control ------------------------------------------------------

    def cancel(self) -> None:
        self._request_stop(CANCELLED)

    def drain(self) -> None:
        """Graceful-shutdown path: stop now, keep everything finished."""
        self._request_stop(INTERRUPTED)

    def _request_stop(self, state: str) -> None:
        if self.state in TERMINAL_STATES:
            return
        self._stop_requested = state
        # Wake the dispatcher loop immediately.
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self._events.put_nowait, ("stop",)
                )
            except RuntimeError:
                pass

    # -- the lifecycle ------------------------------------------------

    async def run(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self._run()
        except Exception as exc:  # noqa: BLE001 — campaign, not server
            self.state = FAILED
            self.error = f"{type(exc).__name__}: {exc}"
            self._teardown_workers()
            self._finalize_journal(flush_out_of_order=True)
        finally:
            if self.state not in TERMINAL_STATES:
                self.state = FAILED
                self.error = self.error or "dispatcher exited unexpectedly"
            self.elapsed = self._elapsed_now() if self.started_monotonic else 0.0
            self.done_event.set()

    async def _run(self) -> None:
        spec = self.spec
        self.state = STARTING
        self.started_monotonic = time.monotonic()

        # Parse + golden + planning are CPU work: off the event loop.
        module, golden_events = await asyncio.to_thread(self._prepare)
        self._plans = spec.config.plans(spec.trials, golden_events)
        # Every submission is a fresh campaign: truncate any stale
        # journal at this path (CampaignJournal appends by design, and
        # appending onto an older campaign's records would break the
        # byte-identity contract).  Resuming a drained journal is the
        # CLI's job (`inject --resume`).
        if os.path.exists(self.journal_path):
            os.remove(self.journal_path)
        self._journal = CampaignJournal(self.journal_path)
        self._journal.write_header(spec.config.header(module))
        self._ordered = InOrderJournal(
            self._journal.record, range(spec.trials)
        )

        if self._preset_batches is not None:
            self.batches = self._preset_batches
        else:
            size = spec.batch_size or default_batch_size(
                spec.trials, self.workers
            )
            self.batches = shard_batches(
                list(range(spec.trials)), size, workers=self.workers,
                static=self.static_sharding,
            )

        self._payload = worker_payload(module, spec.config)

        pool_size = min(self.workers, max(1, len(self.batches)))
        for _ in range(pool_size):
            self._spawn_worker()

        self.state = RUNNING
        await self._dispatch_loop()

        requested = self._stop_requested
        self._teardown_workers()
        if requested is not None:
            self.state = requested
            self._finalize_journal(flush_out_of_order=True)
            return
        self._finalize_journal(flush_out_of_order=False)
        self.elapsed = time.monotonic() - self.started_monotonic
        worker_trials = {
            f"worker-{slot}": health.trials_done
            for slot, health in sorted(self.monitor.workers.items())
        }
        self.result = CampaignResult(
            [self.results[i] for i in range(self.spec.trials)],
            elapsed=self.elapsed,
            jobs=self.workers,
            worker_trials=worker_trials,
            pool_restarts=self.worker_restarts,
        )
        self.state = COMPLETED

    def _prepare(self) -> Tuple[Any, int]:
        module = parse_module(self.spec.module_text)
        verify_module(module)
        # Only the plans need the golden here; workers record their own
        # snapshots.
        golden = self.spec.config.golden(
            module, memory_image=MachineMemory.pristine(module), record=False
        )
        return module, golden.events

    # -- workers ------------------------------------------------------

    def _spawn_worker(self) -> int:
        slot = self._next_slot
        self._next_slot += 1
        return self._start_process(slot)

    def _start_process(self, slot: int) -> int:
        context = _pool_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_service_worker_main,
            args=(self._payload, child_conn),
            daemon=True,
            name=f"repro-serve-{self.campaign_id}-w{slot}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(slot=slot, process=process, conn=parent_conn)
        self._handles[slot] = handle
        self.monitor.track(slot, process.pid)
        loop = asyncio.get_running_loop()
        loop.add_reader(parent_conn.fileno(), self._on_readable, slot)
        handle.reader_installed = True
        return slot

    def _remove_reader(self, handle: _WorkerHandle) -> None:
        if handle.reader_installed and self._loop is not None:
            try:
                self._loop.remove_reader(handle.conn.fileno())
            except (OSError, ValueError):
                pass
            handle.reader_installed = False

    def _on_readable(self, slot: int) -> None:
        """add_reader callback: drain every pending worker message."""
        handle = self._handles.get(slot)
        if handle is None:
            return
        try:
            while handle.conn.poll():
                message = handle.conn.recv()
                self._events.put_nowait(("msg", slot, message))
        except (EOFError, OSError):
            self._remove_reader(handle)
            self._events.put_nowait(("dead", slot))

    def _kill_worker(self, slot: int) -> None:
        # The reader stays installed: the SIGKILL closes the worker's
        # end of the pipe, the resulting EOF fires ``_on_readable``, and
        # the normal death path re-queues the batch.
        handle = self._handles.get(slot)
        if handle is None:
            return
        try:
            handle.process.kill()
        except (OSError, AttributeError):
            pass

    def _teardown_workers(self) -> None:
        for slot, handle in list(self._handles.items()):
            self._remove_reader(handle)
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
            try:
                handle.conn.close()
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for handle in self._handles.values():
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                try:
                    handle.process.kill()
                except OSError:
                    pass
                handle.process.join(1.0)
        self._handles.clear()
        for health in self.monitor.workers.values():
            if health.state != WORKER_DEAD:
                health.state = WORKER_DEAD

    # -- the dispatch loop -------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            if self._stop_requested is not None:
                return
            if all(
                b.status in (BATCH_DONE, BATCH_QUARANTINED)
                for b in self.batches
            ):
                return
            self._assign_batches()
            try:
                event = await asyncio.wait_for(
                    self._events.get(), timeout=self.poll_interval
                )
            except asyncio.TimeoutError:
                self._check_watchdog()
                continue
            self._handle_event(event)
            # Drain whatever queued behind it without extra sleeps.
            while not self._events.empty():
                self._handle_event(self._events.get_nowait())
            self._check_watchdog()

    def _handle_event(self, event: Tuple) -> None:
        kind = event[0]
        if kind == "stop":
            return
        if kind == "dead":
            self._handle_worker_death(event[1])
            return
        slot, message = event[1], event[2]
        tag = message[0]
        health = self.monitor.workers.get(slot)
        if tag == "ready":
            self.monitor.beat(slot)
            if health is not None:
                health.state = WORKER_IDLE
        elif tag == "init_error":
            self.monitor.beat(slot)
            self._handle_worker_death(slot, detail=message[2])
        elif tag == "trial":
            _, batch_id, index, result_data = message
            self.monitor.beat(slot)
            if health is not None:
                health.trials_done += 1
            self._record(index, TrialResult(**result_data))
            self._maybe_chaos_kill(slot)
        elif tag == "batch_done":
            batch_id = message[1]
            self.monitor.beat(slot)
            batch = self.batches[batch_id]
            if batch.status == BATCH_RUNNING and batch.worker == slot:
                batch.status = BATCH_DONE
                batch.worker = None
            if health is not None:
                health.state = WORKER_IDLE
                health.batches_done += 1
                health.current_batch = None

    def _record(self, index: int, trial: TrialResult) -> None:
        if index in self.results:
            return  # duplicate from a retried batch: first wins
        self.results[index] = trial
        self.outcome_counts[trial.outcome] = (
            self.outcome_counts.get(trial.outcome, 0) + 1
        )
        if self._ordered is not None:
            self._ordered.record(index, trial)

    def _maybe_chaos_kill(self, slot: int) -> None:
        """Self-inflicted fault injection for the service itself: after
        ``chaos_kill_after`` streamed trials, SIGKILL the active worker
        once.  The campaign must converge to the same journal anyway —
        the CI smoke job runs exactly this experiment."""
        if not self._chaos_armed or self.chaos_kill_after is None:
            return
        if self.trials_done >= self.chaos_kill_after:
            self._chaos_armed = False
            self._kill_worker(slot)

    def _handle_worker_death(self, slot: int,
                             detail: Optional[str] = None) -> None:
        handle = self._handles.pop(slot, None)
        if handle is None:
            return
        self._remove_reader(handle)
        try:
            handle.conn.close()
        except OSError:
            pass
        try:
            handle.process.join(0.1)
        except (OSError, AssertionError):
            pass
        health = self.monitor.workers.get(slot)
        batch_id = health.current_batch if health is not None else None
        if health is not None:
            health.state = WORKER_DEAD
            health.current_batch = None
        if batch_id is not None:
            self._requeue_batch(self.batches[batch_id])
        if self._stop_requested is not None:
            return
        outstanding = any(
            b.status in (BATCH_PENDING, BATCH_RUNNING) for b in self.batches
        )
        if not outstanding:
            return
        if self.worker_restarts < self.max_worker_restarts:
            self.worker_restarts += 1
            replacement = self.monitor.workers.get(slot)
            if replacement is not None:
                replacement.restarts += 1
            self._start_process(slot)
        elif not self._handles:
            # Graceful degradation, last resort: no workers left and no
            # restart budget — quarantine everything still open so the
            # campaign completes with an honest infra_error tail
            # instead of hanging.
            for batch in self.batches:
                if batch.status in (BATCH_PENDING, BATCH_RUNNING):
                    self._quarantine(batch)

    def _requeue_batch(self, batch: BatchState) -> None:
        if batch.status != BATCH_RUNNING:
            return
        batch.worker = None
        batch.attempts += 1
        if batch.attempts > self.max_retries:
            self._quarantine(batch)
            return
        batch.status = BATCH_PENDING
        batch.not_before = (
            time.monotonic() + self.backoff.delay(batch.attempts)
        )

    def _quarantine(self, batch: BatchState) -> None:
        batch.status = BATCH_QUARANTINED
        batch.worker = None
        self.quarantined_batches += 1
        for index in batch.indices:
            if index not in self.results:
                self._record(index, infra_error_trial())

    def _assign_batches(self) -> None:
        now = time.monotonic()
        idle = [
            slot for slot, health in sorted(self.monitor.workers.items())
            if health.state == WORKER_IDLE and slot in self._handles
        ]
        if not idle:
            return
        for batch in self.batches:
            if not idle:
                break
            if batch.status != BATCH_PENDING or batch.not_before > now:
                continue
            if batch.assigned_slot is not None:
                # Static sharding: only the pinned slot may take it
                # (unless that slot is gone for good — then anyone).
                slot = batch.assigned_slot
                if slot in idle:
                    idle.remove(slot)
                elif (
                    slot in self._handles
                    or self.worker_restarts < self.max_worker_restarts
                ):
                    continue
                else:
                    slot = idle.pop(0)
            else:
                slot = idle.pop(0)
            self._send_batch(slot, batch)

    def _send_batch(self, slot: int, batch: BatchState) -> None:
        handle = self._handles.get(slot)
        if handle is None:
            return
        plans = [self._plans[index] for index in batch.indices]
        try:
            handle.conn.send((batch.batch_id, plans))
        except (OSError, BrokenPipeError):
            self._events.put_nowait(("dead", slot))
            return
        batch.status = BATCH_RUNNING
        batch.worker = slot
        health = self.monitor.workers.get(slot)
        if health is not None:
            health.state = WORKER_BUSY
            health.current_batch = batch.batch_id
            self.monitor.beat(slot)

    def _check_watchdog(self) -> None:
        for slot in self.monitor.overdue():
            # Hung (or wedged-at-startup) worker: put it down; the EOF
            # on its pipe funnels into the normal death path, which
            # re-queues its batch and restarts the slot.
            self._kill_worker(slot)

    def _finalize_journal(self, flush_out_of_order: bool) -> None:
        if self._journal is None:
            return
        if flush_out_of_order:
            self._ordered.flush_out_of_order()
        self._journal.close()
        self._journal = self._ordered = None


class FuzzSpecError(SpecError):
    pass


@dataclasses.dataclass(frozen=True)
class FuzzSpec:
    """A differential-fuzzing campaign as submitted over the API."""

    seed: int = 0
    budget: int = 100
    start: int = 0
    profile: str = "default"
    oracles: Optional[Tuple[str, ...]] = None
    campaign_every: int = 25
    jobs: int = 1
    journal: Optional[str] = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise FuzzSpecError("budget must be non-negative")
        if self.jobs < 1:
            raise FuzzSpecError("jobs must be >= 1")

    def to_json(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if self.oracles is not None:
            data["oracles"] = list(self.oracles)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FuzzSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known - {"kind"})
        if unknown:
            raise FuzzSpecError(
                f"unknown fuzz spec field(s): {', '.join(unknown)}"
            )
        coerced = {k: v for k, v in data.items() if k in known}
        if coerced.get("oracles") is not None:
            coerced["oracles"] = tuple(coerced["oracles"])
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise FuzzSpecError(str(exc)) from None


class FuzzTask:
    """A served fuzz campaign.

    Fuzzing already has its own journaled, resumable pool engine
    (:mod:`repro.fuzz.campaign`); the service runs it off the event
    loop as one supervised unit rather than re-sharding programs
    through the batch dispatcher, and surfaces the same status shape
    as SFI campaigns (state, progress, journal path).
    """

    kind = "fuzz"

    def __init__(self, campaign_id: str, spec: FuzzSpec,
                 journal_path: str) -> None:
        self.campaign_id = campaign_id
        self.spec = spec
        self.journal_path = journal_path
        self.state = QUEUED
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.elapsed = 0.0
        self.done_event = asyncio.Event()
        self.programs_done = 0
        self.failures = 0
        self.unique_failures = 0
        self.fingerprint: Optional[str] = None

    def cancel(self) -> None:
        # The fuzz pool engine has no mid-flight cancellation hook; a
        # cancel request before start is honoured, afterwards the
        # campaign runs to completion (it is budget-bounded).
        if self.state == QUEUED:
            self.state = CANCELLED
            self.done_event.set()

    def drain(self) -> None:
        self.cancel()

    @property
    def trials_done(self) -> int:
        return self.programs_done

    @property
    def trials_total(self) -> int:
        return self.spec.budget

    def status(self) -> Dict[str, Any]:
        elapsed = self.elapsed
        if self.started_monotonic is not None and self.state == RUNNING:
            elapsed = time.monotonic() - self.started_monotonic
        return {
            "id": self.campaign_id,
            "kind": self.kind,
            "state": self.state,
            "error": self.error,
            "journal": self.journal_path,
            "aggregates": {
                "programs_done": self.programs_done,
                "programs_total": self.spec.budget,
                "failures": self.failures,
                "unique_failures": self.unique_failures,
                "fingerprint": self.fingerprint,
                "elapsed_s": round(elapsed, 3),
            },
        }

    async def run(self) -> None:
        if self.state == CANCELLED:
            return
        from repro import fuzz

        self.state = RUNNING
        self.started_monotonic = time.monotonic()
        try:
            settings = fuzz.FuzzSettings(
                seed=self.spec.seed,
                profile=self.spec.profile,
                oracles=self.spec.oracles or fuzz.DEFAULT_ORACLES,
                campaign_every=self.spec.campaign_every,
            )

            def progress(done: int, _total: int) -> None:
                self.programs_done = done

            def execute():
                journal = fuzz.FuzzJournal(self.journal_path, settings)
                try:
                    return fuzz.run_fuzz_campaign(
                        settings,
                        budget=self.spec.budget,
                        start=self.spec.start,
                        jobs=self.spec.jobs,
                        journal=journal,
                        reduce=False,
                        progress=progress,
                    )
                finally:
                    journal.close()

            result = await asyncio.to_thread(execute)
            self.programs_done = len(result.records)
            self.failures = len(result.failures)
            self.unique_failures = len(result.unique_failures)
            self.fingerprint = result.fingerprint()
            self.state = COMPLETED
        except Exception as exc:  # noqa: BLE001 — campaign, not server
            self.state = FAILED
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.elapsed = time.monotonic() - self.started_monotonic
            self.done_event.set()
