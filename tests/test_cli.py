"""End-to-end tests for the ``python -m repro`` command-line tool."""

import pytest

from repro.cli import main
from repro.ir import module_to_text
from helpers import build_counted_loop, build_figure4_region


@pytest.fixture
def loop_ir(tmp_path):
    module, _ = build_counted_loop(15)
    path = tmp_path / "loop.ir"
    path.write_text(module_to_text(module) + "\n")
    return path


@pytest.fixture
def figure4_ir(tmp_path):
    module, _ = build_figure4_region()
    path = tmp_path / "fig4.ir"
    path.write_text(module_to_text(module) + "\n")
    return path


class TestAnalyze:
    def test_prints_region_table(self, loop_ir, capsys):
        assert main(["analyze", str(loop_ir)]) == 0
        out = capsys.readouterr().out
        assert "estimated overhead" in out
        assert "recoverable at Dmax=100" in out
        assert "idempotent" in out

    def test_with_args(self, figure4_ir, capsys):
        assert main(["analyze", str(figure4_ir), "--args", "5"]) == 0
        out = capsys.readouterr().out
        assert "main/" in out


class TestProtect:
    def test_writes_instrumented_module(self, loop_ir, tmp_path, capsys):
        out_path = tmp_path / "protected.ir"
        assert main(["protect", str(loop_ir), "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "set_recovery_ptr" in text
        assert "__encore_rec_" in text
        out = capsys.readouterr().out
        assert "protected" in out

    def test_protected_module_runs(self, loop_ir, tmp_path, capsys):
        out_path = tmp_path / "protected.ir"
        main(["protect", str(loop_ir), "-o", str(out_path)])
        capsys.readouterr()
        assert main(["run", str(out_path), "--outputs", "arr"]) == 0
        out = capsys.readouterr().out
        assert "result:" in out
        assert "@arr" in out
        assert "overhead" in out

    def test_budget_flag_zero_budget(self, loop_ir, tmp_path, capsys):
        out_path = tmp_path / "p.ir"
        assert main([
            "protect", str(loop_ir), "-o", str(out_path), "--budget", "0.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "protected 0 regions" in out or "protected" in out


class TestRunAndInject:
    def test_run_prints_result(self, loop_ir, capsys):
        assert main(["run", str(loop_ir)]) == 0
        out = capsys.readouterr().out
        expected = sum(i * i for i in range(15))
        assert f"result: {expected}" in out

    def test_inject_unprotected_vs_protected(self, loop_ir, tmp_path, capsys):
        out_path = tmp_path / "protected.ir"
        main(["protect", str(loop_ir), "-o", str(out_path)])
        capsys.readouterr()
        assert main([
            "inject", str(out_path), "--outputs", "arr",
            "--trials", "25", "--dmax", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "TOTAL covered" in out
        assert "recovered" in out

class TestInjectJournal:
    def _summary_lines(self, text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    def test_journal_then_resume_matches_uninterrupted(
        self, loop_ir, tmp_path, capsys, monkeypatch
    ):
        journal = tmp_path / "campaign.jsonl"
        # Uninterrupted 30-trial reference.
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "30", "--dmax", "10", "--seed", "9",
        ]) == 0
        reference = self._summary_lines(capsys.readouterr().out)
        # "Crashed" run: journal only the first 12 trials…
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "12", "--dmax", "10", "--seed", "9",
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        # …then resume to the full 30.
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "30", "--dmax", "10", "--seed", "9",
            "--resume", str(journal),
        ]) == 0
        captured = capsys.readouterr()
        assert self._summary_lines(captured.out) == reference
        assert "trials replayed from journal: 12" in captured.out
        # The resumed tail was appended to the same journal.
        from repro.runtime import load_journal

        _meta, completed = load_journal(str(journal))
        assert sorted(completed) == list(range(30))

    def test_resume_rejects_mismatched_campaign(
        self, loop_ir, tmp_path, capsys
    ):
        journal = tmp_path / "campaign.jsonl"
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "10",
            "--resume", str(journal),
        ]) == 1
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_torn_journal_still_rejects_mismatch(
        self, loop_ir, tmp_path, capsys
    ):
        # A crash can tear the journal's last line AND the operator can
        # point --resume at the wrong campaign at the same time.  The
        # torn tail must not downgrade the fingerprint mismatch into a
        # silent restart: exit 1, loud stderr.
        journal = tmp_path / "campaign.jsonl"
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        with open(journal, "a") as handle:
            handle.write('{"kind": "trial", "index": 5, "outc')
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--metadata-faults", "1", "--guard", "checksum",
            "--resume", str(journal),
        ]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "metadata_faults_per_trial" in err

    def test_resume_under_different_threads_rejected(
        self, loop_ir, tmp_path, capsys
    ):
        # A journal written at --threads 2 pins the thread budget; any
        # other budget (including the default 1) changes scheduling and
        # must refuse to resume, in both directions.
        journal = tmp_path / "threads.jsonl"
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--threads", "2", "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--resume", str(journal),
        ]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err and "threads" in err
        plain = tmp_path / "plain.jsonl"
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--journal", str(plain),
        ]) == 0
        capsys.readouterr()
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--threads", "2", "--resume", str(plain),
        ]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err and "threads" in err

    def test_resume_under_different_cf_faults_rejected(
        self, loop_ir, tmp_path, capsys
    ):
        journal = tmp_path / "cfe.jsonl"
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--cf-faults-per-trial", "1", "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--resume", str(journal),
        ]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err and "cf_faults_per_trial" in err
        # Same fault count but the CFE monitor off: also a different
        # campaign (detection physics changed).
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
            "--cf-faults-per-trial", "1", "--cfe-detector", "off",
            "--resume", str(journal),
        ]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err and "cfe_detector" in err

    def test_threaded_cf_journal_resumes_cleanly(
        self, loop_ir, tmp_path, capsys
    ):
        # The positive leg: a threaded CFE campaign journaled halfway
        # resumes to the exact uninterrupted summary.
        base = [
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "14", "--dmax", "10", "--seed", "9",
            "--threads", "2", "--cf-faults-per-trial", "1",
        ]
        assert main(base) == 0
        reference = self._summary_lines(capsys.readouterr().out)
        journal = tmp_path / "tcfe.jsonl"
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "6", "--dmax", "10", "--seed", "9",
            "--threads", "2", "--cf-faults-per-trial", "1",
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        assert main(base + ["--resume", str(journal)]) == 0
        captured = capsys.readouterr()
        assert self._summary_lines(captured.out) == reference
        assert "trials replayed from journal: 6" in captured.out

    def test_journal_auto_path_lands_under_results(
        self, loop_ir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "4", "--dmax", "10", "--journal",
        ]) == 0
        out = capsys.readouterr().out
        assert "# journal:" in out
        journals = list((tmp_path / "results").glob("sfi_*.jsonl"))
        assert len(journals) == 1

    def test_supervisor_flags_accepted(self, loop_ir, capsys):
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "10", "--dmax", "10",
            "--max-attempts", "2", "--step-budget", "500",
            "--recovery-faults-per-trial", "1", "--trial-timeout", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "livelock" in out
        assert "double_fault_unrecoverable" in out


class TestFuzz:
    ARGS = ["fuzz", "--profile", "small", "--seed", "7",
            "--oracles", "opt,conservative", "--campaign-every", "0"]

    def test_clean_run_exits_zero(self, capsys):
        assert main(self.ARGS + ["--budget", "6"]) == 0
        out = capsys.readouterr().out
        assert "programs          6" in out
        assert "failures          0" in out
        assert "fingerprint" in out

    def test_run_twice_prints_identical_summary(self, capsys):
        assert main(self.ARGS + ["--budget", "6"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--budget", "6", "--jobs", "2"]) == 0
        second = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("#")
        ]
        assert strip(first) == strip(second)

    def test_journal_resume_matches_uninterrupted(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        part = tmp_path / "part.jsonl"
        assert main(self.ARGS + ["--budget", "8",
                                 "--journal", str(full)]) == 0
        assert main(self.ARGS + ["--budget", "3",
                                 "--journal", str(part)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--budget", "8",
                                 "--resume", str(part)]) == 0
        assert part.read_bytes() == full.read_bytes()

    def test_resume_mismatch_fails_loudly(self, tmp_path, capsys):
        part = tmp_path / "part.jsonl"
        assert main(self.ARGS + ["--budget", "2",
                                 "--journal", str(part)]) == 0
        capsys.readouterr()
        assert main(["fuzz", "--profile", "small", "--seed", "8",
                     "--oracles", "opt,conservative",
                     "--campaign-every", "0", "--budget", "2",
                     "--resume", str(part)]) == 1
        assert "cannot resume" in capsys.readouterr().err

    def test_planted_defect_found_reduced_and_replayable(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.fuzz import DEFECT_ENV

        monkeypatch.setenv(DEFECT_ENV, "opt-swap-add")
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--profile", "small", "--seed", "7",
                     "--oracles", "opt", "--campaign-every", "0",
                     "--budget", "6", "--corpus", str(corpus),
                     "--max-reduce-checks", "500"]) == 1
        out = capsys.readouterr().out
        assert "unique failures   1" in out
        assert "reduced opt:" in out
        artifacts = list(corpus.glob("opt-*.ir"))
        assert len(artifacts) == 1
        # The artifact's replay command names a seed that reproduces.
        replay_line = next(
            line for line in artifacts[0].read_text().splitlines()
            if "--replay" in line
        )
        seed = replay_line.split("--replay ")[1].split()[0]
        assert main(["fuzz", "--replay", seed, "--profile", "small",
                     "--oracles", "opt"]) == 1
        assert "opt:mismatch" in capsys.readouterr().out

    def test_replay_clean_program_exits_zero(self, capsys):
        assert main(["fuzz", "--replay", "3", "--profile", "small",
                     "--oracles", "opt"]) == 0
        assert "all oracles passed" in capsys.readouterr().out

    def test_default_oracles_come_from_the_fuzz_package(self, tmp_path,
                                                        capsys):
        from repro.fuzz import DEFAULT_ORACLES, load_fuzz_journal

        journal = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--profile", "small", "--seed", "7",
                     "--budget", "1", "--journal", str(journal)]) == 0
        capsys.readouterr()
        header, _ = load_fuzz_journal(journal)
        assert header["oracles"] == list(DEFAULT_ORACLES)
        assert "fastforward" in header["oracles"]

    def test_bad_oracle_list_is_usage_error(self, capsys):
        assert main(["fuzz", "--oracles", "bogus", "--budget", "1"]) == 2
        assert "unknown oracle" in capsys.readouterr().err


class TestInjectReplay:
    def _summary_lines(self, text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    def _protected(self, figure4_ir, tmp_path, capsys):
        out_path = tmp_path / "fig4.encore.ir"
        assert main([
            "protect", str(figure4_ir), "--args", "5", "-o", str(out_path),
        ]) == 0
        capsys.readouterr()
        return out_path

    def test_replay_smoke_serial_parallel_identical(
        self, figure4_ir, tmp_path, capsys
    ):
        protected = self._protected(figure4_ir, tmp_path, capsys)
        argv = [
            "inject", str(protected), "--args", "5", "--outputs", "mem",
            "--trials", "16", "--seed", "7",
            "--detector", "replay", "--replay-chunk", "8",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert self._summary_lines(serial) == self._summary_lines(parallel)
        # The measured-latency report is part of the summary contract.
        assert "replay detection latency" in serial
        assert "replay re-executed instructions" in serial
        assert "(chunk 8)" in serial

    def test_model_campaign_prints_no_replay_lines(self, loop_ir, capsys):
        assert main([
            "inject", str(loop_ir), "--outputs", "arr",
            "--trials", "5", "--dmax", "10", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "replay detection latency" not in out

    def test_resume_under_different_detector_rejected(
        self, figure4_ir, tmp_path, capsys
    ):
        protected = self._protected(figure4_ir, tmp_path, capsys)
        base = [
            "inject", str(protected), "--args", "5", "--outputs", "mem",
            "--trials", "8", "--seed", "7",
        ]
        replay_flags = ["--detector", "replay", "--replay-chunk", "8"]

        # Replay journal resumed as a model campaign: refused.
        replay_journal = tmp_path / "replay.jsonl"
        assert main(base + replay_flags + ["--journal", str(replay_journal)]) == 0
        capsys.readouterr()
        assert main(base + ["--resume", str(replay_journal)]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "detector_backend" in err

        # Model journal resumed as a replay campaign: refused too.
        model_journal = tmp_path / "model.jsonl"
        assert main(base + ["--journal", str(model_journal)]) == 0
        capsys.readouterr()
        assert main(
            base + replay_flags + ["--resume", str(model_journal)]
        ) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "detector_backend" in err

        # Same backend but a different chunk size: a different campaign.
        assert main(
            base + ["--detector", "replay", "--replay-chunk", "16",
                    "--resume", str(replay_journal)]
        ) == 1
        assert "replay_chunk_size" in capsys.readouterr().err

    def test_replay_journal_resume_round_trip(
        self, figure4_ir, tmp_path, capsys
    ):
        protected = self._protected(figure4_ir, tmp_path, capsys)
        base = [
            "inject", str(protected), "--args", "5", "--outputs", "mem",
            "--seed", "7", "--detector", "replay", "--replay-chunk", "8",
        ]
        assert main(base + ["--trials", "16"]) == 0
        reference = self._summary_lines(capsys.readouterr().out)

        journal = tmp_path / "replay.jsonl"
        assert main(base + ["--trials", "6", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(base + ["--trials", "16", "--resume", str(journal)]) == 0
        captured = capsys.readouterr()
        assert self._summary_lines(captured.out) == reference
        assert "trials replayed from journal: 6" in captured.out
