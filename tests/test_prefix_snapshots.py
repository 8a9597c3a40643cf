"""Interpreter snapshots and golden-prefix resume.

One :class:`~repro.runtime.interpreter.Snapshot` type serves replay
detection's chunk entries and SFI campaigns' golden prefixes.  A
campaign's golden run records evenly spaced snapshots, and each
fast-engine trial starts from the latest one at or before its first
planned event instead of re-running the fault-free prefix (see "Trial
phases" in ``docs/sfi_campaigns.md``).  The tests here hold both halves
to the reference: a restored run finishes exactly like the captured
one on either engine, and a resumed trial equals the same trial run
fully hooked from event 0 on the reference engine.
"""

import dataclasses
import os

import pytest

from repro.cli import main
from repro.encore import compile_for_encore
from repro.frontend import compile_source
from repro.ir import IRBuilder, Module
from repro.runtime import (
    CampaignConfig,
    ExecutionLimit,
    golden_run,
    make_interpreter,
    run_trial,
    sfi,
    take_snapshot,
)
from repro.runtime.predecode import FastInterpreter
from test_fastforward import build_spin_module, first_event_of, trace

ROOT = os.path.join(os.path.dirname(__file__), "..")
CRC32 = os.path.join(ROOT, "examples", "mc", "crc32.mc")
CRC_OUTPUTS = ("table", "crc_reg")
ENGINES = ("fast", "reference")
GUARDS = ("off", "checksum", "dup")


@pytest.fixture(scope="module")
def crc():
    """Encore-protected crc32: regions, undo logs and fused pairs."""
    with open(CRC32) as handle:
        module = compile_source(handle.read(), name="crc32.mc")
    return compile_for_encore(module, function="main").module


def guard_state(guard):
    """Everything a guard carries, as comparable values."""
    return (guard.level, guard._entry_sums, guard._entry_dups,
            guard._ptr_sums, guard._ptr_dups, guard._tainted_entries,
            guard._tainted_ptrs, guard.metadata_faults,
            guard.tainted_consumed, guard.detections, guard.repairs)


def end_state(interp):
    """The run state a restored run must reproduce beyond its result."""
    return (interp.events, interp.cost, interp.app_cost,
            interp.instrumentation_cost, interp._frame_counter,
            interp.peak_ckpt_words, guard_state(interp.guard),
            interp.memory._cells, interp.memory._heap_counter)


def fused_second_halves(module, events, pair):
    """Event indices of the second instruction of each executed
    ``pair`` of adjacent opcodes (the fast engine fuses both pairs)."""
    return [
        e.index for e in events
        if e.inst.opcode == pair[1] and e.inst_index > 0
        and module.function(e.func).blocks[e.block]
        .instructions[e.inst_index - 1].opcode == pair[0]
    ]


def full_run(module, engine, guard):
    interp = make_interpreter(module, engine=engine, metadata_guard=guard)
    return interp.run("main", output_objects=CRC_OUTPUTS), interp


def restored_run(module, engine, guard, snapshot):
    interp = make_interpreter(module, engine=engine, metadata_guard=guard,
                              snapshot=snapshot)
    return interp.resume(output_objects=CRC_OUTPUTS), interp


class TestCaptureRestore:
    @pytest.mark.parametrize("guard", GUARDS)
    @pytest.mark.parametrize("capture", ENGINES)
    def test_every_snapshot_resumes_to_the_golden(self, crc, capture, guard):
        result, full = full_run(crc, capture, guard)
        golden = golden_run(crc, output_objects=CRC_OUTPUTS, engine=capture,
                            metadata_guard=guard,
                            snapshots=sfi.PREFIX_SNAPSHOTS)
        assert golden == result
        snapshots = golden.snapshots
        assert sfi.PREFIX_SNAPSHOTS // 2 < len(snapshots) \
            <= sfi.PREFIX_SNAPSHOTS
        spacing = snapshots[0].events
        assert [s.events for s in snapshots] == \
            [spacing * (k + 1) for k in range(len(snapshots))]
        if guard != "off":
            # The guard tables are live somewhere in the prefix, so the
            # comparison below covers restoring them.
            assert any(s.guard._entry_sums for s in snapshots)
        for snapshot in snapshots[::3]:
            for engine in ENGINES:
                resumed, interp = restored_run(crc, engine, guard, snapshot)
                assert resumed == result
                assert end_state(interp) == end_state(full)

    def test_a_snapshot_seeds_any_number_of_runs(self, crc):
        golden = golden_run(crc, output_objects=CRC_OUTPUTS,
                            metadata_guard="dup", snapshots=8)
        snapshot = golden.snapshots[len(golden.snapshots) // 2]

        def contents():
            return repr((snapshot.memory._cells, snapshot.frames,
                         guard_state(snapshot.guard),
                         snapshot.peak_ckpt_words))

        before = contents()
        first = restored_run(crc, "fast", "dup", snapshot)[0]
        second = restored_run(crc, "reference", "dup", snapshot)[0]
        assert first == second == golden
        assert contents() == before

    @pytest.mark.parametrize("pair", [("cmp", "br"), ("ckpt_mem", "store")])
    def test_capture_between_fused_halves(self, crc, pair):
        result, full = full_run(crc, "fast", "checksum")
        events = trace(crc)
        sites = fused_second_halves(crc, events, pair)[::29][:4]
        assert sites
        for site in sites:
            images = []
            for engine in ENGINES:
                interp = make_interpreter(crc, engine=engine, max_steps=site,
                                          metadata_guard="checksum")
                with pytest.raises(ExecutionLimit):
                    interp.run("main")
                assert interp.current_frame.ip == events[site].inst_index
                images.append(take_snapshot(interp))
            # Either engine captures the same state mid-pair ...
            assert images[0].frames == images[1].frames
            # ... and either engine finishes it like the full run.
            for snapshot in images:
                for engine in ENGINES:
                    resumed, interp = restored_run(crc, engine, "checksum",
                                                   snapshot)
                    assert resumed == result
                    assert end_state(interp) == end_state(full)

    def test_heap_names_continue_after_restore(self):
        """Objects allocated after a restore get the names the captured
        run gave them: the heap counter travels with the memory."""
        module = Module("heap")
        out = module.add_global("out", 1)
        b = IRBuilder(module.add_function("main"))
        b.block("entry")
        i, acc = b.mov(0), b.mov(0)
        b.jmp("head")
        b.block("head")
        b.br(b.cmp("slt", i, 12), "body", "exit")
        b.block("body")
        cell = b.alloc(2)
        b.store(cell, 1, i)
        b.add(acc, b.load(cell, 1), acc)
        b.add(i, 1, i)
        b.jmp("head")
        b.block("exit")
        b.store(out, 0, acc)
        b.ret(acc)
        full = make_interpreter(module)
        result = full.run("main", output_objects=["out"])
        golden = golden_run(module, output_objects=["out"], snapshots=8)
        assert len(golden.snapshots) > 2
        for snapshot in golden.snapshots:
            for engine in ENGINES:
                interp = make_interpreter(module, engine=engine,
                                          snapshot=snapshot)
                assert interp.resume(output_objects=["out"]) == result
                assert end_state(interp) == end_state(full)

    def test_guard_level_must_match(self, crc):
        golden = golden_run(crc, output_objects=CRC_OUTPUTS,
                            metadata_guard="checksum", snapshots=4)
        with pytest.raises(ValueError, match="guard level"):
            make_interpreter(crc, metadata_guard="off",
                             snapshot=golden.snapshots[0])

    def test_a_restored_interpreter_is_started(self, crc):
        golden = golden_run(crc, output_objects=CRC_OUTPUTS, snapshots=4)
        interp = make_interpreter(crc, snapshot=golden.snapshots[0])
        with pytest.raises(RuntimeError, match="single-run"):
            interp.run("main")

    def test_golden_hang_still_raises(self):
        module = build_spin_module()
        with pytest.raises(ExecutionLimit):
            golden_run(module, max_steps=50, snapshots=8)


class _ResumeSpy:
    """Records the snapshot each trial interpreter is built from."""

    def __init__(self, monkeypatch):
        self.snapshots = []
        build = sfi.make_interpreter

        def spied(module, **kwargs):
            self.snapshots.append(kwargs.get("snapshot"))
            return build(module, **kwargs)

        monkeypatch.setattr(sfi, "make_interpreter", spied)


def versus_reference(module, golden, outputs, **kwargs):
    """A fast trial on the snapshot-carrying ``golden`` must equal the
    reference trial from event 0.  Returns the fast result.  The fast
    trial runs first, so a spy's second-to-last entry is its snapshot."""
    fast = run_trial(module, golden, output_objects=outputs, **kwargs)
    reference = run_trial(module, golden, output_objects=outputs,
                          engine="reference", **kwargs)
    assert fast == reference, kwargs
    return fast


def surfaces(site):
    """``(guard, knobs)`` trial variants planned at ``site``: register
    faults at several latencies, a checksum-guarded metadata fault, and
    both control-flow fault kinds."""
    for latency in (None, 0, 9):
        yield "off", dict(site=site, bit=3, latency=latency)
    yield "checksum", dict(site=[site], bit=[1], latency=[None],
                           metadata_faults=[(site, "ckpt_mem", 0, 2)],
                           metadata_guard="checksum")
    for kind in ("target", "wrong"):
        yield "off", dict(site=[], bit=[], latency=[],
                          control_faults=[(site, kind, 5)])


def snapshot_golden(module, outputs, guard="off"):
    return CampaignConfig(output_objects=outputs,
                          metadata_guard=guard).golden(module)


@pytest.fixture(scope="module")
def goldens(crc):
    """crc32's campaign goldens at the guard levels ``surfaces`` uses."""
    return {guard: snapshot_golden(crc, CRC_OUTPUTS, guard)
            for guard in ("off", "checksum")}


class TestTrialResume:
    def test_site_zero_starts_at_event_zero(self, crc, goldens,
                                            monkeypatch):
        spy = _ResumeSpy(monkeypatch)
        for guard, knobs in surfaces(0):
            assert goldens[guard].snapshots
            versus_reference(crc, goldens[guard], CRC_OUTPUTS, **knobs)
            assert spy.snapshots[-2] is None

    def test_site_on_a_snapshot_boundary(self, crc, goldens, monkeypatch):
        spy = _ResumeSpy(monkeypatch)
        for snapshot in goldens["off"].snapshots[1::9]:
            site = snapshot.events
            for guard, knobs in surfaces(site):
                versus_reference(crc, goldens[guard], CRC_OUTPUTS, **knobs)
                assert spy.snapshots[-2].events == site
            # One event earlier resumes from the snapshot before.
            versus_reference(crc, goldens["off"], CRC_OUTPUTS,
                             site=site - 1, bit=3, latency=9)
            assert spy.snapshots[-2].events < site

    @pytest.mark.parametrize("pair", [("cmp", "br"), ("ckpt_mem", "store")])
    def test_snapshot_between_fused_halves(self, crc, goldens, pair,
                                           monkeypatch):
        """Goldens whose one snapshot sits on the second half of a fused
        pair: trials planned on, just after and well after it."""
        events = trace(crc)
        sites = fused_second_halves(crc, events, pair)[::41][:3]
        assert sites
        spy = _ResumeSpy(monkeypatch)
        for mid in sites:
            paired = {}
            for guard, golden in goldens.items():
                interp = FastInterpreter(crc, max_steps=mid,
                                         metadata_guard=guard)
                with pytest.raises(ExecutionLimit):
                    interp.run("main", output_objects=CRC_OUTPUTS)
                assert interp.current_frame.ip == events[mid].inst_index
                paired[guard] = dataclasses.replace(
                    golden, snapshots=(take_snapshot(interp),))
            for site in (mid, mid + 1, mid + 37):
                for guard, knobs in surfaces(site):
                    versus_reference(crc, paired[guard], CRC_OUTPUTS,
                                     **knobs)
                    assert spy.snapshots[-2].events == mid

    def test_plan_past_the_golden_end(self, crc, goldens, monkeypatch):
        spy = _ResumeSpy(monkeypatch)
        golden = goldens["off"]
        trial = versus_reference(crc, golden, CRC_OUTPUTS,
                                 site=golden.events + 10, bit=3, latency=5)
        assert trial.outcome == "masked"
        assert trial.fault_event == -1
        assert spy.snapshots[-2] is golden.snapshots[-1]

    @pytest.mark.parametrize("latency", [None, 3])
    def test_hang_at_the_real_budget(self, latency, monkeypatch):
        module = build_spin_module(n=40)
        golden = snapshot_golden(module, ("out",))
        site = first_event_of(module, "pre.exit")
        assert golden.snapshots[0].events < site
        spy = _ResumeSpy(monkeypatch)
        trial = versus_reference(module, golden, ("out",), site=site, bit=4,
                                 latency=latency)
        assert spy.snapshots[-2] is not None
        assert trial.hang
        assert trial.outcome == "detected_unrecoverable"
        assert trial.fault_event == site


class TestWhoRecords:
    @pytest.mark.parametrize("knobs", [
        dict(engine="reference"),
        dict(detector_backend="replay"),
        dict(threads=2),
    ], ids=["reference", "replay", "threads"])
    def test_no_snapshots_and_no_resume(self, crc, goldens, knobs,
                                        monkeypatch):
        config = CampaignConfig(output_objects=CRC_OUTPUTS, seed=4, **knobs)
        assert config.golden(crc).snapshots == ()
        # Even handed a snapshot-carrying golden, these trials start at
        # event 0.
        golden = goldens["off"]
        spy = _ResumeSpy(monkeypatch)
        for plan in config.plans(4, golden.events):
            sfi.run_planned_trial(crc, golden, plan, config)
        assert spy.snapshots == [None] * 4

    def test_campaigns_record_only_where_trials_run(self, crc, monkeypatch):
        calls = []
        run = sfi.golden_run

        def spied(*args, **kwargs):
            calls.append(kwargs["snapshots"])
            return run(*args, **kwargs)

        monkeypatch.setattr(sfi, "golden_run", spied)
        knobs = dict(output_objects=CRC_OUTPUTS, seed=2)
        serial = sfi.run_campaign(crc, trials=3, **knobs)
        assert calls == [sfi.PREFIX_SNAPSHOTS]
        # Nothing left to run: set-up only, or every trial journaled.
        sfi.run_campaign(crc, trials=0, **knobs)
        done = dict(enumerate(serial.trials))
        assert sfi.run_campaign(crc, trials=3, completed=done,
                                **knobs).trials == serial.trials
        # Pooled: each worker records its own golden, the parent none.
        sfi.run_campaign(crc, trials=3, jobs=2, **knobs)
        assert calls[1:4] == [0, 0, 0]

    def test_plain_golden_run_does_not_record(self, crc):
        assert golden_run(crc, output_objects=CRC_OUTPUTS).snapshots == ()

    def test_campaign_golden_records_under_the_trials_guard(self, crc):
        for guard in GUARDS:
            golden = snapshot_golden(crc, CRC_OUTPUTS, guard)
            assert golden.snapshots
            assert {s.guard.level for s in golden.snapshots} == {guard}
            # Snapshots are out of band: the golden equals a plain one.
            plain = golden_run(crc, output_objects=CRC_OUTPUTS,
                               metadata_guard=guard)
            assert golden == plain


def test_parallel_journal_is_the_serial_bytes(crc, tmp_path):
    """``inject --jobs 2 --journal`` on snapshot-resumed trials writes the
    bytes of the serial run, and of the reference engine's."""
    from repro.ir import module_to_text

    path = tmp_path / "crc32.encore.ir"
    path.write_text(module_to_text(crc))
    journals = {}
    for name, extra in (("pool", ["--jobs", "2"]), ("serial", []),
                        ("reference", ["--engine", "reference"])):
        journal = tmp_path / f"{name}.jsonl"
        assert main([
            "inject", str(path), "--outputs", *CRC_OUTPUTS,
            "--trials", "24", "--seed", "6", "--dmax", "40",
            "--recovery-faults-per-trial", "1", "--metadata-faults", "1",
            "--guard", "checksum", "--cf-faults-per-trial", "1",
            "--journal", str(journal), *extra,
        ]) == 0
        journals[name] = journal.read_bytes()
    assert journals["pool"] == journals["serial"] == journals["reference"]
