"""Crash-tolerant campaign journals: append-only JSONL under ``results/``.

A campaign journal records one line per completed trial — ``(seed,
trial_index, outcome, ...)`` — plus a header line fingerprinting the
campaign configuration.  Because every trial is a pure function of
``(seed, trial_index)`` (see :func:`repro.runtime.sfi.derive_trial_seed`),
a campaign that crashed — worker death, power loss, ctrl-C — can be
resumed from its journal and produce results bit-identical to an
uninterrupted serial run: journaled trials are replayed verbatim, the
rest re-derive exactly the plans the lost run would have executed.

The format is deliberately dumb:

* line 1: ``{"kind": "campaign", "version": 1, ...metadata}``
* then:   ``{"kind": "trial", "index": i, "outcome": ..., ...}``

Appends are flushed per record; a line torn by a crash mid-write is
ignored on load (it will simply be re-run).  Every campaign engine
writes records in trial-index order (:class:`InOrderJournal`), but a
reader accepts any order — an interrupted or drained parallel campaign
flushes what it holds out of order — and duplicates (a chunk retried
after a pool crash); the last record for an index wins, which is safe
because records for the same index are identical by determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Callable, Dict, Iterable, Optional, TextIO, Tuple

from repro.runtime.detection import DetectionModel
from repro.runtime.sfi import TrialResult, campaign_config

JOURNAL_VERSION = 1

#: Default directory for campaign journals.
DEFAULT_JOURNAL_DIR = "results"


class JournalError(ValueError):
    """The journal is unreadable or does not match the campaign."""


def module_fingerprint(module) -> str:
    """A stable digest of the module under test, for resume validation."""
    from repro.ir.printer import module_to_text

    return hashlib.sha256(module_to_text(module).encode()).hexdigest()[:16]


def header_fingerprint(metadata: Dict[str, Any]) -> str:
    """A stable digest of a whole campaign header (canonical JSON), so a
    resume refusal can name both sides in one line instead of forcing a
    manual diff of two journal files."""
    canonical = json.dumps(metadata, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def campaign_metadata(
    module,
    seed: int,
    detector: DetectionModel,
    incremental: Optional[Dict[str, Any]] = None,
    **knobs,
) -> Dict[str, Any]:
    """The journal header of the campaign ``knobs`` name (see
    :meth:`repro.runtime.sfi.CampaignConfig.header` for its
    conditional-emission rules)."""
    return campaign_config(seed=seed, detector=detector, **knobs).header(
        module, incremental
    )


class CampaignJournal:
    """Append-side handle: write the header once, then stream records.

    ``fsync=True`` makes every append durable against power loss at a
    measurable throughput cost (see ``benchmarks/bench_supervisor.py``);
    the default flushes to the OS, which already survives process
    crashes — the campaign's own failure mode.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._handle: Optional[TextIO] = None

    def _open(self) -> TextIO:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _write(self, record: Dict[str, Any]) -> None:
        handle = self._open()
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def write_header(self, metadata: Dict[str, Any]) -> None:
        self._write(
            {"kind": "campaign", "version": JOURNAL_VERSION, **metadata}
        )

    def record(self, index: int, trial: TrialResult) -> None:
        fields = dataclasses.asdict(trial)
        if fields.get("section") is None:
            # Non-incremental campaigns carry no attribution; dropping
            # the key keeps their records byte-identical to the
            # pre-incremental format.
            fields.pop("section", None)
        self._write({"kind": "trial", "index": index, **fields})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InOrderJournal:
    """An order-restoring hold-back buffer in front of a journal sink.

    Parallel, served and fuzz campaigns complete work out of order and
    may deliver duplicates (a batch retried after a worker crash); this
    buffer holds each ``(index, record)`` until every index before it
    in ``order`` has been passed on, then hands it to ``sink`` — first
    delivery wins.  ``order`` is the explicit index sequence the serial
    run would write: ``range(trials)`` for a fresh campaign, the
    un-journaled indices of a resumed one.  That makes a sharded
    campaign's journal *byte-identical* to the serial run's.

    ``flush_out_of_order()`` abandons the in-order guarantee and passes
    on whatever is held beyond the contiguous prefix: the interrupt and
    drain paths use it so completed work survives — the journal format
    tolerates out-of-order records, only byte-identity is lost.
    """

    def __init__(self, sink: Callable[[int, Any], None],
                 order: Iterable[int]) -> None:
        self.sink = sink
        self._order = iter(order)
        self._next = next(self._order, None)
        self._held: Dict[int, Any] = {}
        self._seen: set = set()

    @property
    def held(self) -> int:
        """Out-of-order records currently buffered."""
        return len(self._held)

    def record(self, index: int, item: Any) -> None:
        if index in self._seen:
            return  # duplicate delivery (retried batch): first wins
        self._seen.add(index)
        self._held[index] = item
        while self._next in self._held:
            self.sink(self._next, self._held.pop(self._next))
            self._next = next(self._order, None)

    def flush_out_of_order(self) -> int:
        """Pass on every held record regardless of order (drain path)."""
        flushed = len(self._held)
        for index in sorted(self._held):
            self.sink(index, self._held.pop(index))
        return flushed


def load_journal(path: str) -> Tuple[Dict[str, Any], Dict[int, TrialResult]]:
    """Read a journal back: ``(metadata, {index: TrialResult})``.

    Tolerates a torn final line (crash mid-append) and duplicate
    records (chunks retried after a pool crash).  Raises
    :class:`JournalError` when the file has no valid header.
    """
    metadata: Optional[Dict[str, Any]] = None
    completed: Dict[int, TrialResult] = {}
    torn_before_header = 0
    fields = {f.name for f in dataclasses.fields(TrialResult)}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn *tail* (crash mid-append) is re-run harmlessly;
                # a torn line before any header means the header itself
                # was torn mid-write — count it so the refusal below can
                # say so instead of the generic "no header".
                if metadata is None:
                    torn_before_header += 1
                continue
            kind = record.get("kind")
            if kind == "campaign":
                if record.get("version") != JOURNAL_VERSION:
                    raise JournalError(
                        f"journal version {record.get('version')} != "
                        f"{JOURNAL_VERSION}"
                    )
                metadata = {
                    k: v for k, v in record.items()
                    if k not in ("kind", "version")
                }
            elif kind == "trial" and metadata is not None:
                index = record.get("index")
                payload = {k: v for k, v in record.items()
                           if k in fields}
                if isinstance(index, int) and "outcome" in payload:
                    completed[index] = TrialResult(**payload)
    if metadata is None:
        if torn_before_header:
            raise JournalError(
                f"{path} has no valid campaign header: its header line "
                "is torn or corrupt (crash mid-write?); the journal "
                "cannot be trusted — delete it and restart the campaign"
            )
        raise JournalError(f"{path} has no campaign header")
    return metadata, completed


def validate_resume(
    journal_meta: Dict[str, Any], current_meta: Dict[str, Any]
) -> None:
    """Refuse to resume a journal written by a different campaign.

    Everything in the header must match — the journaled results are
    only valid verbatim if the plans they came from are the plans this
    campaign would derive.  (Trial *count* is deliberately absent from
    the metadata: per-trial seeding is prefix-stable, so a journal may
    be resumed into a longer or shorter campaign.)  The comparison is
    symmetric over the union of keys: a journal carrying a key the
    current campaign lacks (e.g. a metadata-fault campaign resumed as a
    plain one) mismatches just as loudly as the reverse.
    """
    mismatched = [
        key for key in sorted(set(journal_meta) | set(current_meta))
        if journal_meta.get(key) != current_meta.get(key)
    ]
    if mismatched:
        detail = ", ".join(
            f"{key}: journal={journal_meta.get(key)!r} != "
            f"campaign={current_meta.get(key)!r}"
            for key in mismatched
        )
        raise JournalError(
            "journal does not match this campaign: header fingerprints "
            f"journal={header_fingerprint(journal_meta)} != "
            f"campaign={header_fingerprint(current_meta)}; "
            f"differing keys ({detail})"
        )


def default_journal_path(module_name: str, seed: int) -> str:
    """The conventional journal location: ``results/sfi_<module>_s<seed>.jsonl``."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in module_name)
    return os.path.join(DEFAULT_JOURNAL_DIR, f"sfi_{safe}_s{seed}.jsonl")
