"""Fast-forwarded SFI trials equal fully hooked ones.

On the fast engine ``run_trial`` runs a trial decoded and hook-free
except where its hooks have work: from each planned fault site until
the fault strikes, at detector deadlines, and while a rollback is
uncommitted (see ``docs/sfi_campaigns.md``, "Trial phases").  The
reference engine stays hooked from event 0, so every test here runs the
same trial on both engines and requires identical
:class:`TrialResult`s, on the edges of the phase boundaries: an empty
prefix, a fault at the last event, a stop between the halves of a
fused pair, hooks dropped right after injection and between faults,
trap-driven retries, watchdog re-rolls, and a hang that must not be
confused with a planned stop.
"""

import os

import pytest

from repro.encore import compile_for_encore
from repro.frontend import compile_source
from repro.ir import IRBuilder, Module
from repro.ir.instructions import Jump, RestoreCheckpoints, SetRecoveryPtr
from repro.runtime import (
    ExecutionLimit,
    SupervisorPolicy,
    golden_run,
    make_interpreter,
    run_campaign,
    run_trial,
    sfi,
)
from repro.runtime.predecode import FastInterpreter

CRC32 = os.path.join(os.path.dirname(__file__), "..", "examples", "mc",
                     "crc32.mc")
CRC_OUTPUTS = ("table", "crc_reg")


@pytest.fixture(scope="module")
def crc():
    """Encore-protected crc32 and its golden run."""
    with open(CRC32) as handle:
        module = compile_source(handle.read(), name="crc32.mc")
    module = compile_for_encore(module, function="main").module
    return module, golden_run(module, output_objects=CRC_OUTPUTS)


def both(module, golden, **kwargs):
    """One trial on each engine; they must agree.  Returns the result."""
    fast = run_trial(module, golden, engine="fast", **kwargs)
    reference = run_trial(module, golden, engine="reference", **kwargs)
    assert fast == reference, kwargs
    return fast


def trace(module, **kwargs):
    """The reference run's step events, in order."""
    events = []
    make_interpreter(
        module, engine="reference",
        post_step=lambda interp, event: events.append(event), **kwargs,
    ).run("main")
    return events


def first_event_of(module, block):
    """Index of the first step executed in ``block``."""
    return next(e.index for e in trace(module) if e.block == block)


def _prefix_loop(b, n):
    """``n`` iterations of a counted loop, ending in block ``pre.exit``:
    a prefix long enough to fast-forward, with fused cmp+br latches."""
    i = b.fresh("i")
    b.mov(0, i)
    b.jmp("pre.head")
    b.block("pre.head")
    b.br(b.cmp("slt", i, n), "pre.body", "pre.exit")
    b.block("pre.body")
    b.add(i, 1, i)
    b.jmp("pre.head")
    b.block("pre.exit")


def build_retrap_module(n=20):
    """A prefix loop, then a region indexed by a live-in computed just
    before it.  Flipping bit 4 of the live-in makes the load trap, and
    every rollback re-enters the region with the live-in still corrupt:
    a trap-driven livelock whose fault site is past the prefix."""
    module = Module("retrap")
    arr = module.add_global("arr", 4)
    out = module.add_global("out", 1)
    b = IRBuilder(module.add_function("main"))
    b.block("entry")
    _prefix_loop(b, n)
    t = b.add(2, 0)
    b.jmp("region")
    region = b.block("region")
    region.instructions.append(SetRecoveryPtr(0, "rec"))
    b.add(0, 0)  # a value-producing step for recovery-window faults
    u = b.load(arr, t)
    b.store(out, 0, u)
    b.ret(u)
    rec = b.block("rec")
    rec.instructions.append(RestoreCheckpoints(0))
    rec.instructions.append(Jump("region"))
    return module


def build_spin_module(n=20):
    """A prefix loop, then a region that spins until its live-in is 2:
    a corrupted live-in spins forever, rollback or not."""
    module = Module("spin")
    out = module.add_global("out", 1)
    b = IRBuilder(module.add_function("main"))
    b.block("entry")
    _prefix_loop(b, n)
    t = b.add(2, 0)
    b.jmp("region")
    region = b.block("region")
    region.instructions.append(SetRecoveryPtr(0, "rec"))
    b.jmp("header")
    b.block("header")
    b.br(b.cmp("eq", t, 2), "done", "spin")
    b.block("spin")
    b.jmp("header")
    b.block("done")
    b.store(out, 0, t)
    b.ret(t)
    rec = b.block("rec")
    rec.instructions.append(RestoreCheckpoints(0))
    rec.instructions.append(Jump("region"))
    return module


class _CountingInjector:
    """Counts the register injector's post-step calls (monkeypatched)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = sfi._FaultInjector.__call__

        def counted(injector, interp, event):
            self.calls += 1
            return original(injector, interp, event)

        monkeypatch.setattr(sfi._FaultInjector, "__call__", counted)


class TestPhaseBoundaries:
    @pytest.mark.parametrize("latency", [None, 0, 7, 60])
    def test_fault_at_site_zero(self, crc, latency):
        module, golden = crc
        for bit in (0, 5, 31):
            both(module, golden, site=0, bit=bit, latency=latency,
                 output_objects=CRC_OUTPUTS)

    @pytest.mark.parametrize("latency", [None, 0, 7])
    def test_fault_at_last_event(self, crc, latency):
        module, golden = crc
        for bit in (0, 13):
            both(module, golden, site=golden.events - 1, bit=bit,
                 latency=latency, output_objects=CRC_OUTPUTS)

    @pytest.mark.parametrize("pair", [("cmp", "br"), ("ckpt_mem", "store")])
    def test_prefix_stop_between_fused_halves(self, crc, pair):
        module, golden = crc
        events = trace(module)
        sites = [
            e.index for e in events
            if e.inst.opcode == pair[1] and e.inst_index > 0
            and module.function(e.func).blocks[e.block]
            .instructions[e.inst_index - 1].opcode == pair[0]
        ][::17][:6]
        assert sites
        for site in sites:
            # The premise: a budget at ``site`` parks the fast engine on
            # the second half of the fused pair.
            interp = FastInterpreter(module, max_steps=site)
            with pytest.raises(ExecutionLimit):
                interp.run("main")
            assert interp.events == site
            assert interp.current_frame.ip == events[site].inst_index
            both(module, golden, site=site, bit=3, latency=9,
                 output_objects=CRC_OUTPUTS)
            both(module, golden, site=[site], bit=[1], latency=[None],
                 metadata_faults=[(site, "ckpt_mem", 0, 2)],
                 metadata_guard="checksum", output_objects=CRC_OUTPUTS)
            for kind in ("target", "wrong"):
                both(module, golden, site=[], bit=[], latency=[],
                     control_faults=[(site, kind, 5)],
                     output_objects=CRC_OUTPUTS)

    def test_latency_none_drops_hooks_right_after_injection(
        self, crc, monkeypatch
    ):
        module, golden = crc
        site = next(e.index for e in trace(module)[1000:] if e.inst.defs())
        counter = _CountingInjector(monkeypatch)
        trial = run_trial(module, golden, site=site, bit=0, latency=None,
                          output_objects=CRC_OUTPUTS)
        assert trial.fault_event == site
        assert not trial.trapped
        assert counter.calls == 1
        assert trial == run_trial(
            module, golden, site=site, bit=0, latency=None,
            output_objects=CRC_OUTPUTS, engine="reference",
        )

    def test_hooks_sleep_between_planned_events(self, crc, monkeypatch):
        module, golden = crc
        defs = [e.index for e in trace(module) if e.inst.defs()]
        first, second = defs[len(defs) // 4], defs[3 * len(defs) // 4]
        counter = _CountingInjector(monkeypatch)
        kwargs = dict(site=[first, second], bit=[0, 0],
                      latency=[None, None], output_objects=CRC_OUTPUTS)
        trial = run_trial(module, golden, **kwargs)
        # Hooked on the two strike steps only: the stretch between the
        # faults runs hook-free like the prefix and the tail.
        assert counter.calls == 2
        assert not trial.trapped
        assert trial == run_trial(module, golden, engine="reference",
                                  **kwargs)
        # The detection latency is hook-free too: the hooks wake at the
        # deadline, then watch the rollback until it commits.
        counter.calls = 0
        kwargs = dict(site=first, bit=0, latency=400,
                      output_objects=CRC_OUTPUTS)
        trial = run_trial(module, golden, **kwargs)
        assert trial.recovery_attempts == 1
        assert counter.calls < 400
        assert trial == run_trial(module, golden, engine="reference",
                                  **kwargs)

    def test_no_planned_event_runs_hook_free(self, crc):
        module, golden = crc
        # Only recovery-window faults: nothing bounds the prefix, and a
        # golden run never rolls back.
        trial = both(module, golden, site=[], bit=[], latency=[],
                     recovery_faults=[(3, 1, 5)],
                     output_objects=CRC_OUTPUTS)
        assert trial.outcome == "masked"


class TestRecoveryInTheTail:
    def test_trap_rollback_retraps_into_the_same_region(self):
        module = build_retrap_module()
        golden = golden_run(module, output_objects=["out"])
        site = first_event_of(module, "pre.exit")
        assert site > 40
        for k in (1, 2, 4):
            trial = both(module, golden, site=site, bit=4, latency=None,
                         output_objects=["out"],
                         policy=SupervisorPolicy(max_attempts=k))
            assert trial.outcome == "livelock"
            assert trial.trapped
            assert trial.recovery_attempts == k + 1
        # The hooks dropped after injection; the trap's rollback must
        # re-install them, or its recovery-window fault never strikes.
        trial = both(module, golden, site=site, bit=4, latency=None,
                     output_objects=["out"], recovery_faults=[(2, 0, None)])
        assert trial.double_faults == 1

    def test_watchdog_rerolls(self):
        module = build_spin_module()
        golden = golden_run(module, output_objects=["out"])
        site = first_event_of(module, "pre.exit")
        for budget, attempts in ((40, 3), (25, 2)):
            policy = SupervisorPolicy(max_attempts=attempts,
                                      attempt_step_budget=budget)
            trial = both(module, golden, site=site, bit=4, latency=3,
                         output_objects=["out"], policy=policy)
            assert trial.outcome == "livelock"
            assert trial.recovery_attempts == attempts + 1
            assert not trial.hang

    @pytest.mark.parametrize("latency", [None, 3])
    def test_hang_hits_the_real_budget_not_the_prefix_stop(self, latency):
        # latency=None: no detection, the hooks drop after injection and
        # the decoded tail spins into the real budget.  latency=3: the
        # rollback never commits, so the hooked window spins there.
        module = build_spin_module()
        golden = golden_run(module, output_objects=["out"])
        site = first_event_of(module, "pre.exit")
        trial = both(module, golden, site=site, bit=4, latency=latency,
                     output_objects=["out"])
        assert trial.hang
        assert trial.outcome == "detected_unrecoverable"
        assert trial.fault_event == site
        # A harmless flip a few events later (the loop condition stays
        # truthy) finishes: the prefix stop alone is never a hang.
        trial = both(module, golden, site=first_event_of(module, "header"),
                     bit=40, latency=latency, output_objects=["out"])
        assert not trial.hang


class TestEngines:
    def test_reference_engine_never_fast_forwards(self, crc, monkeypatch):
        module, golden = crc
        # A site past the end of the run: the fault never strikes, so
        # the run is the golden run, hooked on every one of its steps.
        site = golden.events + 10
        counter = _CountingInjector(monkeypatch)
        trial = run_trial(module, golden, site=site, bit=3, latency=None,
                          output_objects=CRC_OUTPUTS, engine="reference")
        assert trial.outcome == "masked"
        assert trial.fault_event == -1
        assert counter.calls == golden.events
        counter.calls = 0
        assert run_trial(module, golden, site=site, bit=3, latency=None,
                         output_objects=CRC_OUTPUTS,
                         engine="fast") == trial
        assert counter.calls == 0

    def test_replay_backend_stays_fully_hooked(self, crc, monkeypatch):
        module, golden = crc
        counter = _CountingInjector(monkeypatch)
        trial = both(module, golden, site=golden.events // 2, bit=63,
                     latency=5, output_objects=CRC_OUTPUTS,
                     detector_backend="replay")
        assert counter.calls >= 2 * golden.events

    def test_sampled_campaign_every_surface(self, crc):
        module, _ = crc
        knobs = dict(
            output_objects=CRC_OUTPUTS, trials=16, seed=11,
            recovery_faults_per_trial=1, metadata_faults_per_trial=1,
            metadata_guard="checksum", cf_faults_per_trial=1,
            policy=SupervisorPolicy(max_attempts=2, attempt_step_budget=60),
        )
        fast = run_campaign(module, engine="fast", **knobs)
        reference = run_campaign(module, engine="reference", **knobs)
        assert fast.trials == reference.trials


def build_race_module(n=30):
    """Main and a spawned worker update one shared cell with different
    operations, so the final value depends on the interleaving."""
    module = Module("race")
    cell = module.add_global("cell", 1)

    w = IRBuilder(module.add_function("worker"))
    w.block("entry")
    i = w.fresh("i")
    w.mov(0, i)
    w.jmp("loop")
    w.block("loop")
    w.store(cell, 0, w.add(w.load(cell, 0), 1))
    w.add(i, 1, i)
    w.br(w.cmp("slt", i, n), "loop", "done")
    w.block("done")
    w.ret(i)

    b = IRBuilder(module.add_function("main"))
    b.block("entry")
    tid = b.spawn("worker", [])
    j = b.fresh("j")
    b.mov(0, j)
    b.jmp("loop")
    b.block("loop")
    b.store(cell, 0, b.mul(b.load(cell, 0), 3))
    b.add(j, 1, j)
    b.br(b.cmp("slt", j, n), "loop", "join")
    b.block("join")
    b.join(tid)
    b.ret(b.load(cell, 0))
    return module


def test_hook_dropped_after_a_hooked_spawn_keeps_the_scheduler():
    """A hook removed after the reference tier executed the spawn must
    leave the run on the scheduler, exactly as if it was never hooked."""
    module = build_race_module()
    expected = make_interpreter(
        module, engine="reference", max_threads=2, quantum=4,
    ).run("main", output_objects=["cell"])

    def drop_after_spawn(interp, event):
        if event.index >= 6:
            interp.post_step = None

    got = make_interpreter(
        module, engine="fast", max_threads=2, quantum=4,
        post_step=drop_after_spawn,
    ).run("main", output_objects=["cell"])
    assert got == expected
