"""The differential-fuzzing subsystem: generator, oracles, reducer,
campaigns.

The load-bearing guarantees tested here:

* every generated program is verified, trap-free, terminating, and a
  pure function of ``(seed, config)``;
* the oracle suite reports zero failures on a clean toolchain and
  catches both planted miscompiles;
* reduction preserves the failure fingerprint and shrinks the planted
  miscompile to a repro of at most 15 IR instructions;
* campaigns are bit-deterministic — across repeat runs, across
  ``jobs``, and across journal resume — with dedup by
  ``(oracle, fingerprint)`` and a reproducible corpus.
"""

import copy
import json

import pytest

from repro.fuzz import (
    DEFECT_ENV,
    EXTERNALS,
    PROFILES,
    SMALL,
    FuzzJournal,
    FuzzRecord,
    FuzzSettings,
    GeneratorConfig,
    count_instructions,
    derive_program_seed,
    generate_program,
    load_fuzz_journal,
    make_oracles,
    reduce_program,
    run_fuzz_campaign,
    run_oracles,
    run_program,
    validate_fuzz_resume,
)
from repro.fuzz.oracles import Oracle, OracleFailure
from repro.ir import module_to_text, verify_module
from repro.runtime import Interpreter


def run_bare(program, module=None):
    return Interpreter(
        copy.deepcopy(module or program.module), externals=EXTERNALS
    ).run(program.entry, program.args,
          output_objects=program.output_objects)


class TestGenerator:
    def test_reproducible_from_seed_and_config(self):
        for seed in (0, 1, 7, 123456789):
            a = generate_program(seed, SMALL)
            b = generate_program(seed, SMALL)
            assert module_to_text(a.module) == module_to_text(b.module)
            assert a.output_objects == b.output_objects

    def test_different_seeds_differ(self):
        texts = {
            module_to_text(generate_program(seed, SMALL).module)
            for seed in range(10)
        }
        assert len(texts) == 10

    def test_programs_verify_and_terminate(self):
        for seed in range(30):
            program = generate_program(seed, GeneratorConfig())
            verify_module(program.module)
            first = run_bare(program)
            second = run_bare(program)
            assert first.output == second.output
            assert first.events == second.events

    def test_derived_seeds_are_independent_streams(self):
        seeds = {derive_program_seed(0, i) for i in range(100)}
        seeds |= {derive_program_seed(1, i) for i in range(100)}
        assert len(seeds) == 200

    def test_config_rejects_non_power_of_two_memory(self):
        with pytest.raises(ValueError):
            GeneratorConfig(global_size=6)

    def test_profiles_registered(self):
        assert "default" in PROFILES and "small" in PROFILES
        assert "threads" in PROFILES

    def test_default_profile_identity_unchanged_by_threads_knob(self):
        """The ``threads`` knob must not perturb pre-existing journals:
        at its default it is absent from the config key (campaign
        fingerprints hash it), and the default/small grammars draw the
        same RNG stream as before the knob existed."""
        key = GeneratorConfig().key()
        assert "threads" not in key
        assert key == (
            '{"externals":true,"float_globals":1,"float_ops":true,'
            '"global_size":8,"helpers":2,"int_globals":2,"max_depth":3,'
            '"max_stmts":7,"max_trip":5,"pointers":true}'
        )
        assert '"threads":2' in PROFILES["threads"].key()
        for seed in range(10):
            module = generate_program(seed, GeneratorConfig()).module
            opcodes = {inst.opcode for func in module
                       for block in func for inst in block}
            assert not opcodes & {"spawn", "join"}

    def test_threads_profile_spawns_and_stays_in_envelope(self):
        """Threaded programs keep every generator guarantee: verified,
        trap-free, terminating, reproducible — plus a real multithreaded
        interleaving and a schedule-invariant result."""
        from repro.runtime import make_interpreter

        for seed in range(12):
            program = generate_program(seed, PROFILES["threads"])
            assert program.threads == 3
            verify_module(program.module)
            opcodes = {inst.opcode for func in program.module
                       for block in func for inst in block}
            assert {"spawn", "join"} <= opcodes

            def run(quantum=None):
                interp = make_interpreter(
                    copy.deepcopy(program.module), externals=EXTERNALS,
                    max_steps=2_000_000, quantum=quantum,
                )
                result = interp.run(
                    program.entry, program.args,
                    output_objects=program.output_objects,
                )
                return result, interp.scheduler

            first, sched = run()
            assert sched is not None and sched.switch_log
            second, _ = run()
            assert (first.value, first.output, first.events) == (
                second.value, second.output, second.events)
            # Schedule-invariance: a different quantum changes the
            # interleaving but not the observable result — the property
            # that keeps the differential oracles sound on this profile.
            skewed, skewed_sched = run(quantum=7)
            assert skewed_sched.switch_log != tuple(sched.switch_log) or (
                len(skewed_sched.switch_log) == len(sched.switch_log))
            assert skewed.value == first.value
            assert skewed.output == first.output

    def test_threads_profile_oracles_clean(self):
        """The full oracle suite holds on spawn-containing programs
        (the replay oracle self-gates — chunked replay has no scheduler
        state)."""
        from repro.fuzz import DEFAULT_ORACLES

        for seed in (3, 4):
            program = generate_program(seed, PROFILES["threads"])
            failures = run_oracles(program, make_oracles(DEFAULT_ORACLES))
            assert failures == [], [f"{f.oracle}:{f.kind}" for f in failures]

    def test_replay_oracle_gates_off_for_threaded_programs(self):
        from repro.fuzz.oracles import ReplayDeterminismOracle

        program = generate_program(5, PROFILES["threads"])
        assert ReplayDeterminismOracle().check(program) == []

    def test_richness_covers_grammar(self):
        """The corpus actually exercises loops, calls, pointers, and
        floats — not just straight-line arithmetic."""
        opcodes = set()
        for seed in range(40):
            module = generate_program(seed, GeneratorConfig()).module
            for func in module:
                for block in func:
                    for inst in block:
                        opcodes.add(inst.opcode)
                        if inst.opcode == "binop":
                            opcodes.add(inst.op)
        for needed in ("br", "call", "load", "store", "addrof",
                       "fadd", "fmul", "add", "mul"):
            assert needed in opcodes, needed


class TestOracles:
    def test_clean_toolchain_reports_zero_failures(self):
        oracles = make_oracles(
            ["semantic", "conservative", "opt", "rollback"]
        )
        for seed in range(15):
            program = generate_program(seed, SMALL)
            assert run_oracles(program, oracles) == [], seed

    def test_campaign_oracle_clean(self):
        program = generate_program(3, SMALL)
        assert run_oracles(program, make_oracles(["campaign"])) == []

    def test_replay_oracle_clean_on_generated_programs(self):
        oracles = make_oracles(["replay"])
        for seed in range(8):
            program = generate_program(seed, SMALL)
            assert run_oracles(program, oracles) == [], seed

    def test_replay_oracle_in_registry_and_defaults(self):
        from repro.fuzz.oracles import DEFAULT_ORACLES, ORACLE_REGISTRY

        assert "replay" in ORACLE_REGISTRY
        assert "replay" in DEFAULT_ORACLES
        (oracle,) = make_oracles(["replay"])
        assert oracle.name == "replay"

    def test_fastforward_oracle_in_registry_and_defaults(self):
        from repro.fuzz.oracles import DEFAULT_ORACLES, ORACLE_REGISTRY

        assert "fastforward" in ORACLE_REGISTRY
        assert "fastforward" in DEFAULT_ORACLES
        (oracle,) = make_oracles(["fastforward"])
        assert oracle.name == "fastforward"
        assert oracle.TRIALS <= 8

    def test_fastforward_oracle_clean(self):
        oracles = make_oracles(["fastforward"])
        for seed in range(6):
            program = generate_program(seed, SMALL)
            assert run_oracles(program, oracles) == [], seed
        for seed in (3, 4):
            program = generate_program(seed, PROFILES["threads"])
            assert run_oracles(program, oracles) == [], seed

    def test_fastforward_oracle_catches_a_late_stop(self, monkeypatch):
        """A hook-free stretch that overruns the next planned event by
        one step skips the event a fault was planned at; the oracle must
        see the fast engine diverge from the fully hooked reference."""
        from repro.runtime import sfi

        exact = sfi._next_stop

        def late(parts):
            first = exact(parts)
            return None if first is None else first + 1

        monkeypatch.setattr(sfi, "_next_stop", late)
        oracles = make_oracles(["fastforward"])
        found = []
        for seed in range(6):
            failures = run_oracles(generate_program(seed, SMALL), oracles)
            found.extend(f.kind for f in failures)
        assert any(kind.startswith("mismatch:") for kind in found), found

    def test_fastforward_oracle_catches_a_snapshot_past_the_stop(
            self, monkeypatch):
        """Resuming from the first golden snapshot *after* a trial's first
        planned event skips that event; the oracle must see it."""
        from repro.runtime import sfi

        def past(golden, stop, metadata_guard):
            later = [snap for snap in golden.snapshots
                     if stop is not None and snap.events > stop]
            return later[0] if later else None

        monkeypatch.setattr(sfi, "_resume_point", past)
        self._assert_fastforward_mismatch()

    def test_fastforward_oracle_catches_dropped_guard_tables(
            self, monkeypatch):
        """A snapshot without the guard's seals lets a checksum-guarded
        rollback consume corrupted metadata the golden prefix sealed."""
        import dataclasses

        from repro.runtime import sfi
        from repro.runtime.guarded_state import RecoveryStateGuard

        exact = sfi.take_snapshot

        def unsealed(interp):
            snap = exact(interp)
            return dataclasses.replace(
                snap, guard=RecoveryStateGuard(snap.guard.level))

        monkeypatch.setattr(sfi, "take_snapshot", unsealed)
        self._assert_fastforward_mismatch()

    @staticmethod
    def _assert_fastforward_mismatch():
        oracles = make_oracles(["fastforward"])
        found = []
        for seed in range(6):
            failures = run_oracles(generate_program(seed, SMALL), oracles)
            found.extend(f.kind for f in failures)
        assert any(kind.startswith("mismatch:") for kind in found), found

    def test_replay_oracle_fingerprint_reduction_stable(self):
        # Coarse kinds survive delta-debugging: the same oracle+kind
        # fingerprints identically regardless of the detail text.
        a = OracleFailure("replay", "spurious-divergence:raw",
                          "chunk 3 of 40 diverged")
        b = OracleFailure("replay", "spurious-divergence:raw",
                          "chunk 1 of 2 diverged")
        c = OracleFailure("replay", "spurious-divergence:instrumented",
                          "chunk 3 of 40 diverged")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_fingerprint_is_coarse_and_stable(self):
        a = OracleFailure("opt", "mismatch", "value 1->2")
        b = OracleFailure("opt", "mismatch", "completely different detail")
        c = OracleFailure("opt", "crash", "value 1->2")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            make_oracles(["semantic", "nonsense"])

    def test_crashing_oracle_is_contained(self):
        class Exploding(Oracle):
            name = "exploding"

            def check(self, program):
                raise RuntimeError("boom")

        failures = run_oracles(
            generate_program(0, SMALL), [Exploding()]
        )
        assert len(failures) == 1
        assert failures[0].kind == "oracle-error"
        assert "boom" in failures[0].detail

    def test_planted_opt_defect_is_found(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "opt-swap-add")
        oracles = make_oracles(["opt"])
        found = [
            seed for seed in range(10)
            if run_oracles(generate_program(seed, SMALL), oracles)
        ]
        assert found, "opt-swap-add never detected in 10 programs"

    def test_planted_rollback_defect_is_found(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "drop-ckpt-mem")
        oracles = make_oracles(["rollback"])
        found = []
        for seed in range(12):
            failures = run_oracles(generate_program(seed, SMALL), oracles)
            found.extend(f.kind for f in failures)
        assert "inexact-restore" in found


class TestReduction:
    def _first_finding(self, oracle_name, budget=20):
        oracle = make_oracles([oracle_name])[0]
        for seed in range(budget):
            program = generate_program(seed, SMALL)
            failures = run_oracles(program, [oracle])
            if failures:
                return program, oracle, failures[0]
        pytest.fail(f"no {oracle_name} finding in {budget} programs")

    def test_planted_miscompile_shrinks_to_at_most_15_instructions(
        self, monkeypatch
    ):
        """The acceptance-criterion demo: find the hidden miscompile,
        then delta-debug it below 15 IR instructions."""
        monkeypatch.setenv(DEFECT_ENV, "opt-swap-add")
        program, oracle, failure = self._first_finding("opt")
        result = reduce_program(program, oracle, failure.fingerprint)
        assert result.final_instructions <= 15
        assert result.final_instructions < result.initial_instructions
        # The shrunk module still reproduces the same failure class.
        reduced_failures = run_oracles(result.program, [oracle])
        assert failure.fingerprint in [
            f.fingerprint for f in reduced_failures
        ]
        verify_module(result.program.module)

    def test_reduction_is_deterministic(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "opt-swap-add")
        program, oracle, failure = self._first_finding("opt")
        a = reduce_program(program, oracle, failure.fingerprint)
        b = reduce_program(program, oracle, failure.fingerprint)
        assert module_to_text(a.program.module) == \
            module_to_text(b.program.module)
        assert a.checks == b.checks

    def test_render_carries_replay_command(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "opt-swap-add")
        program, oracle, failure = self._first_finding("opt")
        result = reduce_program(program, oracle, failure.fingerprint)
        result.profile = "small"
        text = result.render()
        assert f"--replay {program.seed}" in text
        assert "--profile small" in text
        assert "module" in text  # the IR itself is embedded

    def test_refuses_non_reproducing_fingerprint(self):
        program = generate_program(0, SMALL)
        oracle = make_oracles(["opt"])[0]
        with pytest.raises(ValueError, match="does not reproduce"):
            reduce_program(program, oracle, "deadbeef0000")


SETTINGS = FuzzSettings(seed=7, profile="small",
                        oracles=("opt", "conservative"),
                        campaign_every=0)


class TestCampaign:
    def test_run_twice_is_bit_identical(self):
        a = run_fuzz_campaign(SETTINGS, budget=12, reduce=False)
        b = run_fuzz_campaign(SETTINGS, budget=12, reduce=False)
        assert a.fingerprint() == b.fingerprint()
        assert a.records == b.records

    def test_parallel_equals_serial(self):
        serial = run_fuzz_campaign(SETTINGS, budget=12, reduce=False)
        parallel = run_fuzz_campaign(
            SETTINGS, budget=12, jobs=2, chunk_size=3, reduce=False
        )
        assert parallel.records == serial.records
        assert parallel.fingerprint() == serial.fingerprint()

    def test_journal_matches_fingerprint_and_resumes(self, tmp_path):
        path = tmp_path / "fuzz.jsonl"
        with FuzzJournal(path, SETTINGS) as journal:
            full = run_fuzz_campaign(
                SETTINGS, budget=10, journal=journal, reduce=False
            )
        import hashlib
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == full.fingerprint()

        # A prefix journal resumes to the same bytes.
        prefix = tmp_path / "prefix.jsonl"
        with FuzzJournal(prefix, SETTINGS) as journal:
            run_fuzz_campaign(
                SETTINGS, budget=4, journal=journal, reduce=False
            )
        header, completed = load_fuzz_journal(prefix)
        validate_fuzz_resume(header, SETTINGS)
        assert len(completed) == 4
        with FuzzJournal(prefix, SETTINGS) as journal:
            resumed = run_fuzz_campaign(
                SETTINGS, budget=10, journal=journal,
                completed=completed, reduce=False,
            )
        assert resumed.executed == 6 and resumed.resumed == 4
        assert prefix.read_bytes() == path.read_bytes()
        assert resumed.records == full.records

    def test_resume_rejects_mismatched_settings(self, tmp_path):
        path = tmp_path / "fuzz.jsonl"
        with FuzzJournal(path, SETTINGS) as journal:
            run_fuzz_campaign(
                SETTINGS, budget=2, journal=journal, reduce=False
            )
        header, _ = load_fuzz_journal(path)
        other = FuzzSettings(seed=8, profile="small",
                             oracles=("opt", "conservative"),
                             campaign_every=0)
        with pytest.raises(ValueError, match="refusing to resume"):
            validate_fuzz_resume(header, other)

    def test_journal_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "fuzz.jsonl"
        with FuzzJournal(path, SETTINGS) as journal:
            run_fuzz_campaign(
                SETTINGS, budget=4, journal=journal, reduce=False
            )
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"index": 99, "torn')
        header, records = load_fuzz_journal(path)
        assert len(records) == 4

    def test_record_json_roundtrip(self):
        record = run_program(SETTINGS, 3)
        assert FuzzRecord.from_json(record.to_json()) == record

    def test_defect_campaign_dedups_and_fills_corpus(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(DEFECT_ENV, "opt-swap-add")
        corpus = tmp_path / "corpus"
        result = run_fuzz_campaign(
            FuzzSettings(seed=7, profile="small", oracles=("opt",),
                         campaign_every=0),
            budget=8, corpus_dir=corpus, max_reduce_checks=500,
        )
        assert result.failures
        unique = result.unique_failures
        assert len(unique) == 1  # one defect class, many witnesses
        ((oracle_name, fingerprint), (index, _)) = \
            next(iter(unique.items()))
        # dedup keeps the first failing index regardless of order
        assert index == min(i for i, _ in result.failures)
        artifact = corpus / f"{oracle_name}-{fingerprint}.ir"
        assert artifact.exists()
        assert f"fingerprint={fingerprint}" in artifact.read_text()
        assert len(result.reductions) == 1
        assert result.reductions[0].final_instructions <= 15

    def test_defect_corpus_identical_serial_vs_parallel(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(DEFECT_ENV, "opt-swap-add")
        settings = FuzzSettings(seed=7, profile="small",
                                oracles=("opt",), campaign_every=0)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_fuzz_campaign(
            settings, budget=8, corpus_dir=serial_dir,
            max_reduce_checks=500,
        )
        parallel = run_fuzz_campaign(
            settings, budget=8, jobs=2, corpus_dir=parallel_dir,
            max_reduce_checks=500,
        )
        assert serial.fingerprint() == parallel.fingerprint()
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        parallel_files = sorted(p.name for p in parallel_dir.iterdir())
        assert serial_files == parallel_files
        for name in serial_files:
            assert (serial_dir / name).read_text() == \
                (parallel_dir / name).read_text()

    def test_campaign_every_gates_campaign_oracle(self):
        settings = FuzzSettings(seed=7, profile="small",
                                oracles=("campaign",), campaign_every=4)
        # Only index 0 runs the campaign oracle in a 3-program window
        # starting at 0; indices 1, 2 skip it entirely.
        record = run_program(settings, 1)
        assert record.failures == ()

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="unknown profile"):
            FuzzSettings(profile="gigantic")
        with pytest.raises(ValueError, match="unknown oracle"):
            FuzzSettings(oracles=("semantic", "nope"))
