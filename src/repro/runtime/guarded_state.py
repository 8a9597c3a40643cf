"""Self-protecting recovery state: checksums, duplication, verified rollback.

Encore's recovery metadata — the checkpoint log, the register-checkpoint
area, and the per-region recovery pointer — lives in plain memory for
the entire region activation.  The paper implicitly assumes that state
is fault-free, but it is exactly the kind of silent-corruption surface
a fault-injection study must cover: a transient that lands in an undo
record makes the *rollback itself* restore garbage, converting a
recoverable fault into silent data corruption while the campaign counts
it as covered.

:class:`RecoveryStateGuard` closes that gap in both directions:

* it is the **fault target** — the SFI engine's metadata faults
  (``FaultPlan.metadata_faults``) strike through
  :meth:`RecoveryStateGuard.inject_fault`, corrupting a live checkpoint
  record or the recovery pointer of the innermost frame that has one;
* it is the **defence** — at guard level ``checksum`` every pushed
  record and every published pointer is sealed with a CRC that is
  re-verified before the rollback consumes it (a mismatch raises
  :class:`MetadataCorruption`, escalating the trial to the reason-coded
  ``metadata_corrupt_detected`` outcome instead of silently restoring
  garbage); at level ``dup`` a shadow copy additionally allows the
  verifier to *repair* the corrupted primary and let recovery proceed.

The guard also performs oracle taint tracking (used for outcome
classification only, never by the protection logic): corrupted records
and pointers are remembered, and a rollback that consumes one without
detection marks the trial so a wrong final output classifies as
``metadata_corrupt_silent`` rather than generic ``sdc``.

Guard work is charged to the interpreter's instrumentation cost in the
paper's dynamic-instruction currency (:data:`SEAL_COST` /
:data:`VERIFY_COST` / :data:`REPAIR_COST`), so the protection-overhead
tradeoff is measurable with the same accounting as the checkpoints
themselves (``benchmarks/bench_guarded_state.py``).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.runtime.supervisor import EscalateTrial

#: Guard levels, in increasing protection (and cost) order.
GUARD_LEVELS = ("off", "checksum", "dup")

#: Metadata structures the fault model can strike.
METADATA_TARGETS = ("ckpt_mem", "ckpt_reg", "recovery_ptr")

#: Extra dynamic instructions charged when sealing one record or
#: pointer: a checksum is one fold-and-store; duplication adds the
#: shadow copy's stores on top.
SEAL_COST = {"off": 0, "checksum": 1, "dup": 3}

#: Extra dynamic instructions charged when verifying one record or
#: pointer at rollback time (recompute + compare).
VERIFY_COST = {"off": 0, "checksum": 1, "dup": 1}

#: Extra dynamic instructions charged when repairing a corrupted
#: primary from its shadow copy (``dup`` level only).
REPAIR_COST = 2


class MetadataCorruption(EscalateTrial):
    """The guard detected corrupted recovery metadata at rollback time.

    Subclasses :class:`~repro.runtime.supervisor.EscalateTrial` so the
    detection escalates through the same reason-coded ladder as the
    supervisor's own verdicts: the trial ends *gracefully* with the
    ``metadata_corrupt_detected`` outcome — a controlled restart-
    required signal — instead of restoring garbage state.
    ``structure`` names what failed verification (``checkpoint_log`` or
    ``recovery_ptr``).
    """

    def __init__(self, structure: str) -> None:
        super().__init__("metadata_corrupt_detected")
        self.structure = structure


def metadata_checksum(payload) -> int:
    """The guard's word-level checksum (CRC-32 of the value pattern)."""
    return zlib.crc32(repr(payload).encode())


class RecoveryStateGuard:
    """Checksummed (and optionally duplicated) recovery metadata for one
    interpreter instance.

    The primary copies stay where the paper puts them — the frame's
    checkpoint log (``frame.region_ckpts``) and recovery-pointer slot
    (``frame.recovery_ptr``) — while the guard keeps the seals and
    shadow copies in side tables keyed by ``(frame id, region id)``.
    Frame ids are never reused within one execution, so stale keys
    cannot collide.

    At level ``"off"`` every hook is a near-no-op: no seals are kept
    and no cost is charged, so an unguarded run is bit-identical to the
    pre-guard interpreter.  Taint bookkeeping (pure classification
    oracle) is active at every level.
    """

    def __init__(self, level: str = "off") -> None:
        if level not in GUARD_LEVELS:
            raise ValueError(
                f"unknown guard level {level!r} "
                f"(expected one of {', '.join(GUARD_LEVELS)})"
            )
        self.level = level
        # Seals and shadow copies: (frame id, region id) -> per-entry.
        self._entry_sums: Dict[Tuple[int, int], List[int]] = {}
        self._entry_dups: Dict[Tuple[int, int], List[tuple]] = {}
        # Pointer seals/shadows: frame id -> checksum / copy.
        self._ptr_sums: Dict[int, int] = {}
        self._ptr_dups: Dict[int, Tuple[int, str]] = {}
        # Oracle taint: which primaries the fault model corrupted.
        self._tainted_entries: Set[Tuple[int, int, int]] = set()
        self._tainted_ptrs: Set[int] = set()
        #: Metadata faults that actually landed in live metadata.
        self.metadata_faults = 0
        #: Corrupted records/pointers a rollback consumed undetected.
        self.tainted_consumed = 0
        #: Corruptions the verifier caught (before raising).
        self.detections = 0
        #: Corrupted primaries repaired from their shadow copy.
        self.repairs = 0

    def copy(self) -> "RecoveryStateGuard":
        """An independent copy: tables, taint and counters (interpreter
        snapshots carry one)."""
        twin = RecoveryStateGuard(self.level)
        twin._entry_sums = {k: list(v) for k, v in self._entry_sums.items()}
        twin._entry_dups = {k: list(v) for k, v in self._entry_dups.items()}
        twin._ptr_sums = dict(self._ptr_sums)
        twin._ptr_dups = dict(self._ptr_dups)
        twin._tainted_entries = set(self._tainted_entries)
        twin._tainted_ptrs = set(self._tainted_ptrs)
        twin.metadata_faults = self.metadata_faults
        twin.tainted_consumed = self.tainted_consumed
        twin.detections = self.detections
        twin.repairs = self.repairs
        return twin

    # ------------------------------------------------------------------
    # interpreter hooks (seal on write, verify on rollback)
    # ------------------------------------------------------------------

    def on_publish(self, frame) -> int:
        """``set_recovery_ptr`` executed: seal the fresh pointer and
        reset the published region's entry state."""
        region_id = frame.recovery_ptr[0]
        self.on_reset(frame, region_id)
        self._tainted_ptrs.discard(frame.id)
        if self.level == "off":
            return 0
        self._ptr_sums[frame.id] = metadata_checksum(frame.recovery_ptr)
        if self.level == "dup":
            self._ptr_dups[frame.id] = frame.recovery_ptr
        return SEAL_COST[self.level]

    def on_clear(self, frame, region_id: int) -> int:
        """``clear_recovery_ptr`` matched: drop every seal and taint —
        nothing can roll back into the region any more."""
        self.on_reset(frame, region_id)
        self._tainted_ptrs.discard(frame.id)
        self._ptr_sums.pop(frame.id, None)
        self._ptr_dups.pop(frame.id, None)
        return 0

    def on_reset(self, frame, region_id: int) -> None:
        """The region's checkpoint log was emptied (publish/restore)."""
        key = (frame.id, region_id)
        self._entry_sums.pop(key, None)
        self._entry_dups.pop(key, None)
        self._tainted_entries = {
            taint for taint in self._tainted_entries if taint[:2] != key
        }

    def on_push(self, frame, region_id: int, record: tuple) -> int:
        """``ckpt_reg``/``ckpt_mem`` appended one undo record."""
        if self.level == "off":
            return 0
        key = (frame.id, region_id)
        self._entry_sums.setdefault(key, []).append(metadata_checksum(record))
        if self.level == "dup":
            self._entry_dups.setdefault(key, []).append(record)
        return SEAL_COST[self.level]

    def verify_restore(self, frame, region_id: int) -> Tuple[List[tuple], int]:
        """Verify (and possibly repair) the checkpoint log before a
        restore applies it.

        Returns ``(records, cost)`` with corrupted primaries replaced by
        their repaired shadow copies at level ``dup``.  Raises
        :class:`MetadataCorruption` on an unrepairable mismatch.  With
        the guard off, consuming a tainted record is recorded for the
        ``metadata_corrupt_silent`` classification and the corrupted
        data flows through — exactly the unprotected failure mode.
        """
        records = frame.region_ckpts.get(region_id, [])
        key = (frame.id, region_id)
        if self.level == "off":
            for index in range(len(records)):
                if (frame.id, region_id, index) in self._tainted_entries:
                    self.tainted_consumed += 1
            return list(records), 0
        sums = self._entry_sums.get(key, [])
        dups = self._entry_dups.get(key, [])
        cost = 0
        verified: List[tuple] = []
        for index, record in enumerate(records):
            cost += VERIFY_COST[self.level]
            expected = sums[index] if index < len(sums) else None
            if expected is None or metadata_checksum(record) == expected:
                # Unsealed records (hand-built modules that restore
                # without checkpoint pushes) pass through unverified.
                verified.append(record)
                continue
            if self.level == "dup" and index < len(dups):
                shadow = dups[index]
                if metadata_checksum(shadow) == expected:
                    records[index] = shadow
                    self._tainted_entries.discard((frame.id, region_id, index))
                    self.repairs += 1
                    cost += REPAIR_COST
                    verified.append(shadow)
                    continue
            self.detections += 1
            raise MetadataCorruption("checkpoint_log")
        return verified, cost

    def verify_pointer(self, frame) -> Tuple[Optional[Tuple[int, str]], int]:
        """Verify (and possibly repair) the recovery pointer before a
        rollback follows it.  Same contract as :meth:`verify_restore`.
        """
        ptr = frame.recovery_ptr
        if ptr is None:
            return None, 0
        if self.level == "off":
            if frame.id in self._tainted_ptrs:
                self.tainted_consumed += 1
            return ptr, 0
        cost = VERIFY_COST[self.level]
        expected = self._ptr_sums.get(frame.id)
        if expected is None or metadata_checksum(ptr) == expected:
            return ptr, cost
        if self.level == "dup":
            shadow = self._ptr_dups.get(frame.id)
            if shadow is not None and metadata_checksum(shadow) == expected:
                frame.recovery_ptr = shadow
                self._tainted_ptrs.discard(frame.id)
                self.repairs += 1
                return shadow, cost + REPAIR_COST
        self.detections += 1
        raise MetadataCorruption("recovery_ptr")

    # ------------------------------------------------------------------
    # the fault surface
    # ------------------------------------------------------------------

    def inject_fault(self, interp, target: str, selector: int, bit: int) -> bool:
        """Corrupt live recovery metadata; the SFI metadata fault model.

        Searches frames innermost-first for the first one with a live
        structure of the planned ``target`` kind and flips the planned
        ``bit`` in the entry picked by ``selector`` (modulo the live
        entry count, so the draw is meaningful for any log length).
        Returns ``False`` when no such metadata is live anywhere — the
        fault landed in dead metadata time and is architecturally
        masked, mirroring the dead-register model for program faults.

        Only the *primary* copy is corrupted; seals and shadow copies
        model storage the transient did not strike.
        """
        if target not in METADATA_TARGETS:
            raise ValueError(f"unknown metadata fault target {target!r}")
        from repro.runtime.interpreter import bitflip

        for frame in reversed(interp.frames):
            if target == "recovery_ptr":
                if frame.recovery_ptr is None:
                    continue
                region_id, _label = frame.recovery_ptr
                # A corrupted pointer is a wild branch target: model the
                # flipped address bits as landing on another block of
                # the same function (jumping there skips the restore
                # sequence entirely — the silent-corruption shape).
                labels = list(frame.func.blocks)
                wild = labels[bit % len(labels)] if labels else _label
                frame.recovery_ptr = (region_id, wild)
                self._tainted_ptrs.add(frame.id)
                self.metadata_faults += 1
                return True
            kind = "mem" if target == "ckpt_mem" else "reg"
            live = [
                (region_id, index, record)
                for region_id, records in sorted(frame.region_ckpts.items())
                for index, record in enumerate(records)
                if record[0] == kind
            ]
            if not live:
                continue
            region_id, index, record = live[selector % len(live)]
            if kind == "reg":
                _, reg, value = record
                corrupted = ("reg", reg, bitflip(value, bit))
            elif bit >= 48:
                # High bit draws strike the saved *address* word: the
                # restore then writes the old value to the wrong cell
                # (possibly out of bounds — a visible trap symptom).
                _, name, addr, value = record
                corrupted = ("mem", name, addr ^ (1 << (bit % 16)), value)
            else:
                _, name, addr, value = record
                corrupted = ("mem", name, addr, bitflip(value, bit))
            frame.region_ckpts[region_id][index] = corrupted
            self._tainted_entries.add((frame.id, region_id, index))
            self.metadata_faults += 1
            return True
        return False
