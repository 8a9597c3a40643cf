"""Campaign-service tests: sharding/backoff/watchdog bookkeeping, the
in-order journal, spec validation, and the supervised dispatcher —
including the load-bearing invariant that a campaign served over HTTP
(even one whose worker is SIGKILLed mid-flight) produces a journal
byte-identical to the same one-shot serial run.
"""

import asyncio
import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from helpers import build_counted_loop
from repro.ir.printer import module_to_text
from repro.runtime import (
    CampaignInterrupted,
    CampaignJournal,
    DetectionModel,
    InOrderJournal,
    JournalError,
    TrialResult,
    campaign_metadata,
    header_fingerprint,
    infra_error_trial,
    load_journal,
    run_campaign,
    validate_resume,
)
from repro.service import (
    COMPLETED,
    CampaignServer,
    CampaignSpec,
    CampaignTask,
    ExponentialBackoff,
    HealthMonitor,
    ServiceClient,
    ServiceError,
    SpecError,
    default_batch_size,
    shard_batches,
)
from repro.service.server import MAX_BODY_BYTES

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="service workers require the fork start method"
)


def _module(n=25):
    module, _ = build_counted_loop(n)
    return module


def _detector():
    return DetectionModel(dmax=40)


def _spec(module=None, **overrides):
    module = module or _module()
    settings = dict(
        module_text=module_to_text(module) + "\n",
        output_objects=("arr",),
        trials=12,
        seed=9,
        dmax=40,
    )
    settings.update(overrides)
    return CampaignSpec.from_json(settings)


def _reference_journal(path, spec):
    """The one-shot serial journal the service must reproduce exactly."""
    from repro.ir.parser import parse_module

    module = parse_module(spec.module_text)
    with CampaignJournal(str(path)) as journal:
        journal.write_header(spec.config.header(module))
        campaign = run_campaign(
            module, spec.config, trials=spec.trials,
            on_result=journal.record,
        )
    return campaign


def _run_task(task):
    asyncio.run(task.run())
    return task


# ---------------------------------------------------------------------
# Health bookkeeping (pure state, fake clocks)
# ---------------------------------------------------------------------


class TestBackoff:
    def test_doubles_then_caps(self):
        backoff = ExponentialBackoff(base=0.25, factor=2.0, cap=10.0)
        assert [backoff.delay(a) for a in range(1, 7)] == [
            0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        assert backoff.delay(7) == 10.0
        assert backoff.delay(100) == 10.0

    def test_zero_attempts_no_delay(self):
        assert ExponentialBackoff().delay(0) == 0.0


class TestSharding:
    def test_batches_partition_indices(self):
        batches = shard_batches(list(range(23)), batch_size=5)
        got = [i for b in batches for i in b.indices]
        assert got == list(range(23))
        assert [len(b.indices) for b in batches] == [5, 5, 5, 5, 3]
        assert all(b.assigned_slot is None for b in batches)

    def test_static_pins_round_robin(self):
        batches = shard_batches(list(range(10)), batch_size=2,
                                workers=3, static=True)
        assert [b.assigned_slot for b in batches] == [0, 1, 2, 0, 1]

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            shard_batches([0, 1], batch_size=0)

    def test_default_batch_size_eight_per_worker(self):
        assert default_batch_size(160, workers=2) == 10
        assert default_batch_size(3, workers=8) == 1


class TestHealthMonitor:
    def test_busy_worker_goes_overdue_after_silence(self):
        monitor = HealthMonitor(heartbeat_timeout=5.0)
        health = monitor.track(0, pid=100, now=0.0)
        health.state = "busy"
        assert monitor.overdue(now=4.0) == []
        monitor.beat(0, now=4.0)
        assert monitor.overdue(now=8.0) == []
        assert monitor.overdue(now=9.5) == [0]

    def test_starting_worker_gets_longer_allowance(self):
        monitor = HealthMonitor(heartbeat_timeout=5.0, startup_timeout=60.0)
        monitor.track(0, pid=100, now=0.0)
        assert monitor.overdue(now=30.0) == []
        assert monitor.overdue(now=61.0) == [0]

    def test_idle_and_dead_never_overdue(self):
        monitor = HealthMonitor(heartbeat_timeout=5.0)
        for slot, state in ((0, "idle"), (1, "dead")):
            monitor.track(slot, pid=None, now=0.0).state = state
        assert monitor.overdue(now=1e9) == []

    def test_restart_preserves_counters(self):
        monitor = HealthMonitor()
        first = monitor.track(0, pid=1, now=0.0)
        first.restarts = 2
        first.trials_done = 7
        again = monitor.track(0, pid=2, now=1.0)
        assert again.restarts == 2
        assert again.trials_done == 7


# ---------------------------------------------------------------------
# The in-order hold-back journal
# ---------------------------------------------------------------------


class TestInOrderJournal:
    def _open(self, tmp_path):
        path = str(tmp_path / "ordered.jsonl")
        journal = CampaignJournal(path)
        journal.write_header(campaign_metadata(_module(), 3, _detector()))
        return path, journal, InOrderJournal(journal.record, range(4))

    def test_out_of_order_records_written_in_index_order(self, tmp_path):
        path, journal, ordered = self._open(tmp_path)
        trial = infra_error_trial()
        for index in (2, 0, 3, 1):
            ordered.record(index, trial)
        journal.close()
        _, completed = load_journal(path)
        with open(path) as handle:
            lines = [line for line in handle if '"trial"' in line]
        import json
        assert [json.loads(line)["index"] for line in lines] == [0, 1, 2, 3]
        assert sorted(completed) == [0, 1, 2, 3]

    def test_duplicates_first_delivery_wins(self, tmp_path):
        path, journal, ordered = self._open(tmp_path)
        first = infra_error_trial()
        second = dataclasses.replace(first, outcome="sdc")
        ordered.record(0, first)
        ordered.record(0, second)  # retried batch re-delivers: ignored
        journal.close()
        _, completed = load_journal(path)
        assert completed[0].outcome == first.outcome

    def test_flush_out_of_order_preserves_resumability(self, tmp_path):
        path, journal, ordered = self._open(tmp_path)
        trial = infra_error_trial()
        ordered.record(2, trial)  # held: index 0 missing
        assert ordered.held == 1
        ordered.flush_out_of_order()
        journal.close()
        _, completed = load_journal(path)
        assert sorted(completed) == [2]


# ---------------------------------------------------------------------
# Journal refusal messages (satellites)
# ---------------------------------------------------------------------


class TestJournalRefusals:
    def test_fingerprint_mismatch_names_both_fingerprints(self):
        module = _module()
        ours = campaign_metadata(module, 5, _detector())
        theirs = dict(ours, seed=6)
        with pytest.raises(JournalError) as err:
            validate_resume(theirs, ours)
        message = str(err.value)
        assert header_fingerprint(ours) in message
        assert header_fingerprint(theirs) in message
        assert "seed" in message

    def test_torn_header_line_refuses_loudly(self, tmp_path):
        path = tmp_path / "torn-header.jsonl"
        header = '{"kind": "campaign", "version": 1, "seed": 5'
        path.write_text(header)  # no closing brace, no newline
        with pytest.raises(JournalError) as err:
            load_journal(str(path))
        assert "torn or corrupt" in str(err.value)

    def test_truncated_header_refuses_via_cli_resume(self, tmp_path):
        journal = tmp_path / "trunc.jsonl"
        journal.write_text('{"kind": "campaign", "vers')
        from repro.cli import main

        code = main([
            "inject", "examples/mc/crc32.mc", "--trials", "2",
            "--resume", str(journal),
        ])
        assert code == 1

    def test_empty_file_still_generic_no_header_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(JournalError) as err:
            load_journal(str(path))
        assert "torn" not in str(err.value)


# ---------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------


class TestCampaignSpec:
    def test_round_trips_through_json(self):
        spec = _spec(trials=7, faults_per_trial=2, metadata_guard="dup")
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        data = _spec().to_json()
        data["explode"] = True
        with pytest.raises(SpecError, match="explode"):
            CampaignSpec.from_json(data)

    def test_missing_module_text_rejected(self):
        with pytest.raises(SpecError, match="module_text"):
            CampaignSpec.from_json({"trials": 5})

    def test_replay_backend_refuses_threads(self):
        with pytest.raises(SpecError, match="replay"):
            _spec(detector_backend="replay", threads=2)

    @pytest.mark.parametrize("overrides", [
        {"trials": -1},
        {"metadata_guard": "bogus"},
        {"cfe_detector": "bogus"},
        {"engine": "bogus"},
        {"batch_size": 0},
        {"detector_backend": "bogus"},
    ])
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(SpecError):
            _spec(**overrides)


# ---------------------------------------------------------------------
# The supervised dispatcher
# ---------------------------------------------------------------------


@needs_fork
class TestCampaignTask:
    def test_served_journal_byte_identical_to_serial(self, tmp_path):
        spec = _spec()
        reference = tmp_path / "serial.jsonl"
        _reference_journal(reference, spec)
        task = CampaignTask("c0001", spec, str(tmp_path / "served.jsonl"),
                            workers=2)
        _run_task(task)
        assert task.state == COMPLETED
        assert task.result is not None
        assert (tmp_path / "served.jsonl").read_bytes() == \
            reference.read_bytes()

    def test_sigkilled_worker_retries_to_identical_journal(self, tmp_path):
        spec = _spec(trials=16, batch_size=2)
        reference = tmp_path / "serial.jsonl"
        campaign = _reference_journal(reference, spec)
        task = CampaignTask(
            "c0001", spec, str(tmp_path / "served.jsonl"),
            workers=2, chaos_kill_after=3,
        )
        _run_task(task)
        assert task.state == COMPLETED
        assert task.worker_restarts >= 1
        assert (tmp_path / "served.jsonl").read_bytes() == \
            reference.read_bytes()
        # No trial lost, no trial degraded to infra_error.
        assert [t.outcome for t in task.result.trials] == \
            [t.outcome for t in campaign.trials]

    def test_restart_budget_exhaustion_quarantines_not_hangs(self, tmp_path):
        spec = _spec(trials=8, batch_size=4)
        task = CampaignTask(
            "c0001", spec, str(tmp_path / "served.jsonl"),
            workers=1, chaos_kill_after=2, max_worker_restarts=0,
        )
        _run_task(task)
        assert task.state == COMPLETED
        result = task.result
        assert len(result.trials) == spec.trials
        infra = sum(1 for t in result.trials if t.outcome == "infra_error")
        assert infra > 0  # honest denominator: lost work is visible
        assert task.quarantined_batches > 0
        # The journal stays loadable and complete.
        _, completed = load_journal(str(tmp_path / "served.jsonl"))
        assert sorted(completed) == list(range(spec.trials))


# ---------------------------------------------------------------------
# The HTTP surface
# ---------------------------------------------------------------------


class _ServerThread:
    """A CampaignServer on its own event loop in a daemon thread."""

    def __init__(self, tmp_path, **kwargs):
        self.server = CampaignServer(
            port=0, journal_dir=str(tmp_path / "journals"), **kwargs
        )
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)

        async def main():
            await self.server.start()
            self.ready.set()
            await self.server.serve_until_shutdown()

        self.loop.run_until_complete(main())

    def __enter__(self):
        self.thread.start()
        assert self.ready.wait(15), "server did not start"
        return self

    def __exit__(self, *exc):
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        )
        future.result(timeout=30)
        self.thread.join(timeout=10)

    @property
    def client(self):
        return ServiceClient(
            f"http://127.0.0.1:{self.server.port}", timeout=30
        )


@needs_fork
class TestHTTPService:
    def test_submit_wait_journal_byte_identical(self, tmp_path):
        spec = _spec()
        reference = tmp_path / "serial.jsonl"
        _reference_journal(reference, spec)
        with _ServerThread(tmp_path, workers=2) as served:
            client = served.client
            assert client.health()["status"] == "ok"
            accepted = client.submit(spec.to_json())
            status = client.wait(accepted["id"], timeout=120)
            assert status["state"] == "completed"
            data = client.fetch_journal(accepted["id"], follow=False)
        assert data == reference.read_bytes()

    def test_bad_spec_rejected_with_400(self, tmp_path):
        with _ServerThread(tmp_path) as served:
            with pytest.raises(ServiceError) as err:
                served.client.submit({"kind": "sfi", "trials": 3})
            assert err.value.status == 400

    def test_unknown_campaign_404(self, tmp_path):
        with _ServerThread(tmp_path) as served:
            with pytest.raises(ServiceError) as err:
                served.client.status("c9999")
            assert err.value.status == 404

    def test_harness_routes_campaigns_through_server(
            self, tmp_path, monkeypatch):
        from repro.experiments.harness import run_sfi

        module = _module()
        local = run_sfi(module, output_objects=["arr"], trials=10,
                        seed=4, detector=_detector(), jobs=1)
        with _ServerThread(tmp_path, workers=2) as served:
            monkeypatch.setenv(
                "ENCORE_SFI_SERVER",
                f"http://127.0.0.1:{served.server.port}",
            )
            routed = run_sfi(_module(), output_objects=["arr"], trials=10,
                             seed=4, detector=_detector())
        assert [t.outcome for t in routed.trials] == \
            [t.outcome for t in local.trials]
        assert routed.jobs == 2

    def test_harness_falls_back_when_server_unreachable(
            self, monkeypatch, capsys):
        from repro.experiments.harness import run_sfi

        monkeypatch.setenv("ENCORE_SFI_SERVER", "http://127.0.0.1:9")
        result = run_sfi(_module(), output_objects=["arr"], trials=4,
                         seed=1, detector=_detector(), jobs=1)
        assert len(result.trials) == 4
        assert "running campaign locally" in capsys.readouterr().err


def _raw_status(served, head: str, body: bytes = b"") -> int:
    """Send one hand-written request; return the response's status code."""
    import socket

    with socket.create_connection(
            ("127.0.0.1", served.server.port), timeout=15) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def _post(body: bytes, length=None) -> str:
    declared = len(body) if length is None else length
    return ("POST /campaigns HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {declared}\r\n")


class TestHTTPRequestErrors:
    """Malformed requests are client errors (4xx), never a 500."""

    @pytest.mark.parametrize("body", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b'"text"', b"null",
    ], ids=["malformed", "not-utf8", "array", "string", "null"])
    def test_bad_body_is_400(self, tmp_path, body):
        with _ServerThread(tmp_path) as served:
            assert _raw_status(served, _post(body), body) == 400

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5", "0x10", ""],
                             ids=["word", "negative", "float", "hex",
                                  "blank"])
    def test_bad_content_length_is_400(self, tmp_path, length):
        with _ServerThread(tmp_path) as served:
            status = _raw_status(served, _post(b"", length=length))
        # A blank header means no body: the empty spec is rejected by
        # spec validation, also with 400.
        assert status == 400

    def test_oversized_body_is_413(self, tmp_path):
        with _ServerThread(tmp_path) as served:
            status = _raw_status(
                served, _post(b"", length=MAX_BODY_BYTES + 1))
            # The server stays up for the next client.
            assert served.client.health()["status"] == "ok"
        assert status == 413


# ---------------------------------------------------------------------
# Graceful SIGINT (satellite)
# ---------------------------------------------------------------------


class TestGracefulInterrupt:
    def test_serial_interrupt_carries_partial_results(self):
        module = _module()
        def hook(index, trial):
            if index == 3:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as err:
            run_campaign(module, trials=10, seed=2, detector=_detector(),
                         output_objects=["arr"], on_result=hook)
        exc = err.value
        assert isinstance(exc, KeyboardInterrupt)
        assert exc.total == 10
        assert exc.done == 3
        assert sorted(exc.results) == [0, 1, 2]

    def test_interrupted_results_match_uninterrupted_prefix(self):
        module = _module()
        full = run_campaign(module, trials=8, seed=2, detector=_detector(),
                            output_objects=["arr"])

        def hook(index, trial):
            if index == 4:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as err:
            run_campaign(_module(), trials=8, seed=2, detector=_detector(),
                         output_objects=["arr"], on_result=hook)
        for index, trial in err.value.results.items():
            assert trial == full.trials[index]

    #: Trials of the interrupted campaign: enough that it is still
    #: running when the signal lands (crc32 trials resume from golden
    #: snapshots and 500 of them finish within one 0.1 s poll).
    SIGINT_TRIALS = "2000"

    @needs_fork
    def test_cli_sigint_exits_130_and_journal_resumes(self, tmp_path):
        journal = tmp_path / "interrupted.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "inject",
             "examples/mc/crc32.mc", "--trials", self.SIGINT_TRIALS,
             "--seed", "3", "--jobs", "2", "--journal", str(journal)],
            cwd=os.path.join(os.path.dirname(__file__), ".."),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and len(
                    journal.read_text().splitlines()) >= 5:
                break
            time.sleep(0.1)
        else:
            proc.kill()
            pytest.fail("campaign produced no journal rows to interrupt")
        proc.send_signal(signal.SIGINT)
        output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 130, output
        assert "interrupted" in output
        assert "--resume" in output
        # The journal a SIGINT leaves behind resumes into a (shorter)
        # campaign whose rows equal the uninterrupted run's.
        metadata, completed = load_journal(str(journal))
        assert completed  # flushed, not lost
        code = subprocess.run(
            [sys.executable, "-m", "repro", "inject",
             "examples/mc/crc32.mc", "--trials", self.SIGINT_TRIALS,
             "--seed", "3", "--jobs", "2", "--resume", str(journal)],
            cwd=os.path.join(os.path.dirname(__file__), ".."),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=300,
        ).returncode
        assert code == 0
        _, resumed = load_journal(str(journal))
        assert sorted(resumed) == list(range(int(self.SIGINT_TRIALS)))
