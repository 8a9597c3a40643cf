"""One campaign config: header bytes per conditional key group, knob
validation at every entry point, the supervisor policy in the header,
and ``--jobs`` journals byte-identical to serial ones (fresh, resumed
across gaps, and interrupted).
"""

import json
import multiprocessing
import os

import pytest

from helpers import build_counted_loop
from repro.cli import main
from repro.ir import module_to_text
from repro.runtime import (
    CampaignInterrupted,
    CampaignJournal,
    DetectionModel,
    JournalError,
    SupervisorPolicy,
    campaign_metadata,
    load_journal,
    run_campaign,
    validate_resume,
)

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="parallel campaigns need the fork start method"
)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "mc")


def _module():
    module, _ = build_counted_loop(25)
    return module


def _detector():
    return DetectionModel(dmax=40)


# ---------------------------------------------------------------------
# Header bytes, one row per conditional key group
# ---------------------------------------------------------------------

_BASE = (
    '{"seed":5,"function":"main","args":[],"faults_per_trial":%d,'
    '"recovery_faults_per_trial":0,'
    '"detector":{"dmax":40,"kind":"uniform","coverage":1.0},'
    '"module":"c40e759eac827774"'
)

HEADER_ROWS = [
    ("default", {}, _BASE % 1 + "}"),
    ("metadata+guard",
     dict(metadata_faults_per_trial=1, metadata_guard="checksum"),
     _BASE % 1 + ',"metadata_faults_per_trial":1,'
     '"metadata_guard":"checksum"}'),
    ("replay default chunk", dict(detector_backend="replay"),
     _BASE % 1 + ',"detector_backend":"replay","replay_chunk_size":64}'),
    ("replay explicit chunk",
     dict(detector_backend="replay", replay_chunk_size=16),
     _BASE % 1 + ',"detector_backend":"replay","replay_chunk_size":16}'),
    ("cf+detector",
     dict(faults_per_trial=0, cf_faults_per_trial=1, cfe_detector="off"),
     _BASE % 0 + ',"cf_faults_per_trial":1,"cfe_detector":"off"}'),
    ("threads", dict(threads=2), _BASE % 1 + ',"threads":2}'),
    ("quantum", dict(threads=2, quantum=7),
     _BASE % 1 + ',"threads":2,"quantum":7}'),
    ("incremental", dict(incremental={"mode": "build"}),
     _BASE % 1 + ',"incremental":{"mode":"build"}}'),
    ("policy", dict(policy=SupervisorPolicy(max_attempts=1)),
     _BASE % 1 + ',"max_attempts":1,"attempt_step_budget":null}'),
]


@pytest.mark.parametrize(
    "knobs,expected", [row[1:] for row in HEADER_ROWS],
    ids=[row[0] for row in HEADER_ROWS],
)
def test_header_bytes_per_key_group(knobs, expected):
    meta = campaign_metadata(_module(), 5, _detector(), **knobs)
    assert json.dumps(meta, separators=(",", ":")) == expected


def test_default_policy_leaves_header_unchanged():
    module = _module()
    assert campaign_metadata(module, 5, _detector()) == campaign_metadata(
        module, 5, _detector(), policy=SupervisorPolicy(),
    )


# ---------------------------------------------------------------------
# The supervisor policy is part of the campaign identity
# ---------------------------------------------------------------------


def test_cross_policy_resume_refused_api():
    module = _module()
    strict = campaign_metadata(
        module, 5, _detector(), policy=SupervisorPolicy(max_attempts=1),
    )
    default = campaign_metadata(module, 5, _detector())
    with pytest.raises(JournalError, match="max_attempts"):
        validate_resume(strict, default)
    with pytest.raises(JournalError, match="max_attempts"):
        validate_resume(default, strict)


def test_cross_policy_resume_refused_cli(tmp_path, capsys):
    ir = tmp_path / "loop.ir"
    ir.write_text(module_to_text(_module()) + "\n")
    journal = tmp_path / "strict.jsonl"
    common = ["inject", str(ir), "--outputs", "arr", "--dmax", "10",
              "--seed", "5", "--recovery-faults-per-trial", "1"]
    assert main(common + ["--trials", "6", "--max-attempts", "1",
                          "--journal", str(journal)]) == 0
    capsys.readouterr()
    before = journal.read_bytes()
    assert main(common + ["--trials", "12", "--resume", str(journal)]) == 1
    err = capsys.readouterr().err
    assert "cannot resume" in err and "max_attempts" in err
    assert journal.read_bytes() == before
    # The same policy resumes.
    assert main(common + ["--trials", "12", "--max-attempts", "1",
                          "--resume", str(journal)]) == 0


# ---------------------------------------------------------------------
# Invalid knobs are refused where they enter
# ---------------------------------------------------------------------

#: (flat spec JSON overrides) — each one invalid.
BAD_KNOBS = [
    {"faults_per_trial": -1},
    {"recovery_faults_per_trial": -1},
    {"metadata_faults_per_trial": -1},
    {"cf_faults_per_trial": -1},
    {"faults_per_trial": 0},
    {"quantum": 0},
    {"threads": 2, "quantum": -3},
    {"detector_backend": "replay", "replay_chunk_size": 0},
    {"threads": 0},
    {"detector_backend": "bogus"},
    {"detector_kind": "bogus"},
    {"dmax": -5},
    {"detector_coverage": 3.0},
    {"max_attempts": 0},
    {"step_budget": 0},
    {"metadata_guard": "bogus"},
    {"cfe_detector": "bogus"},
    {"engine": "bogus"},
]


def _api_campaign(module, overrides):
    """Run a one-trial campaign through the keyword API, translating the
    flat spec keys for the detector and policy into their objects (the
    construction itself is part of the API surface being refused)."""
    knobs = dict(overrides)
    detector = {
        key: knobs.pop(flat)
        for flat, key in (("dmax", "dmax"), ("detector_kind", "kind"),
                          ("detector_coverage", "coverage"))
        if flat in knobs
    }
    policy = {
        key: knobs.pop(flat)
        for flat, key in (("max_attempts", "max_attempts"),
                          ("step_budget", "attempt_step_budget"))
        if flat in knobs
    }
    if detector:
        knobs["detector"] = DetectionModel(**detector)
    if policy:
        knobs["policy"] = SupervisorPolicy(**policy)
    return run_campaign(module, output_objects=["arr"], trials=1, **knobs)


@pytest.mark.parametrize("surface", ["api", "spec"])
@pytest.mark.parametrize(
    "overrides", BAD_KNOBS, ids=[json.dumps(b) for b in BAD_KNOBS],
)
def test_invalid_knob_refused(surface, overrides, tmp_path):
    module = _module()
    if surface == "api":
        with pytest.raises(ValueError):
            _api_campaign(module, overrides)
        return
    from repro.service import CampaignServer, SpecError

    server = CampaignServer(port=0, journal_dir=str(tmp_path))
    body = {"kind": "sfi", "module_text": module_to_text(module) + "\n",
            "output_objects": ["arr"], "trials": 1, **overrides}
    with pytest.raises(SpecError):
        server.submit(body)
    assert server.campaigns == {}


@pytest.mark.parametrize("surface", ["api", "spec"])
def test_cf_only_campaign_stays_valid(surface, tmp_path):
    """Fig 8's CF-only campaigns: no register fault, one CF fault."""
    module = _module()
    overrides = {"faults_per_trial": 0, "cf_faults_per_trial": 1}
    if surface == "api":
        assert len(_api_campaign(module, overrides).trials) == 1
        return
    from repro.service import CampaignServer

    server = CampaignServer(port=0, journal_dir=str(tmp_path))
    body = {"kind": "sfi", "module_text": module_to_text(module) + "\n",
            "trials": 1, **overrides}
    task = server.submit(body)
    assert task.spec.config.cf_faults_per_trial == 1


# ---------------------------------------------------------------------
# --jobs journals are the serial bytes
# ---------------------------------------------------------------------


@needs_fork
def test_inject_jobs_journal_matches_serial_bytes(tmp_path, capsys):
    protected = tmp_path / "crc32.encore.ir"
    assert main(["protect", os.path.join(EXAMPLES, "crc32.mc"),
                 "-o", str(protected)]) == 0
    journals = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.jsonl"
        assert main(["inject", str(protected), "--seed", "7",
                     "--trials", "40", "--jobs", jobs,
                     "--journal", str(path)]) == 0
        journals[jobs] = path.read_bytes()
    capsys.readouterr()
    assert journals["2"] == journals["1"]


def _journaled(path, module, detector, completed, **kwargs):
    with CampaignJournal(str(path)) as journal:
        journal.write_header(campaign_metadata(module, 3, detector))
        for index in sorted(completed):
            journal.record(index, completed[index])
        run_campaign(
            module, trials=24, seed=3, detector=detector,
            output_objects=["arr"], completed=completed,
            on_result=journal.record, **kwargs,
        )
    return path.read_bytes()


@needs_fork
def test_parallel_resume_over_gaps_appends_serial_bytes(tmp_path):
    module, detector = _module(), _detector()
    serial = run_campaign(module, trials=24, seed=3, detector=detector,
                          output_objects=["arr"])
    completed = {i: serial.trials[i] for i in (0, 5, 6, 7, 20, 23)}
    one = _journaled(tmp_path / "serial.jsonl", module, detector, completed)
    two = _journaled(tmp_path / "jobs2.jsonl", module, detector, completed,
                     jobs=2, chunk_size=1)
    assert two == one


@needs_fork
# Terminating the pool mid-run makes CPython's executor thread report an
# InvalidStateError on the cancelled futures; the campaign is unaffected.
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_interrupted_parallel_campaign_journals_every_merged_trial(
        tmp_path):
    module, detector = _module(), _detector()
    serial = run_campaign(module, trials=30, seed=8, detector=detector,
                          output_objects=["arr"])

    def progress(done, total):
        if done >= 10:
            raise KeyboardInterrupt

    path = tmp_path / "interrupted.jsonl"
    with CampaignJournal(str(path)) as journal:
        journal.write_header(campaign_metadata(module, 8, detector))
        with pytest.raises(CampaignInterrupted) as err:
            run_campaign(
                module, trials=30, seed=8, detector=detector,
                output_objects=["arr"], jobs=2, chunk_size=1,
                progress=progress, on_result=journal.record,
            )
    merged = err.value.results
    assert len(merged) >= 10
    _meta, completed = load_journal(str(path))
    assert completed == merged
    resumed = run_campaign(module, trials=30, seed=8, detector=detector,
                           output_objects=["arr"], completed=completed,
                           jobs=2)
    assert resumed.trials == serial.trials
