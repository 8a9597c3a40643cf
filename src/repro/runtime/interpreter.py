"""The reference interpreter for the repro IR.

Executes modules instruction by instruction, exposing exactly the hooks
the reproduction needs:

* dynamic-instruction events (for profiling, trace capture and fault
  injection — ``pre_step``/``post_step`` callbacks receive resolved
  memory addresses);
* two step counters: ``events`` counts executed instructions (fault
  sites are drawn from this index), while ``cost`` charges each
  instruction's ``dynamic_cost`` so Encore instrumentation overhead is
  measured in the paper's dynamic-instruction currency;
* Encore recovery semantics: ``SetRecoveryPtr`` publishes the active
  region in a frame-local slot (the paper reserves a region of the stack
  for recovery state, so the pointer survives calls to instrumented
  callees), ``CheckpointReg``/``CheckpointMem`` push undo records, and
  :meth:`Interpreter.trigger_recovery` performs the detector-initiated
  redirect to the recovery block;
* traps (out-of-bounds accesses, division by zero) surface as
  :class:`Trap` outcomes — the "highly visible symptoms" that low-cost
  detectors key on.

This module defines the **reference engine**: the simple decode-as-you-go
loop every other engine is measured against.  The pre-decoded fast
engine lives in :mod:`repro.runtime.predecode`; engine selection (and
the ``Interpreter`` name itself, which resolves to the session's default
engine) goes through :mod:`repro.runtime.engine`.  Whatever the engine,
observable behaviour — events, costs, traps, recovery state, hook
streams — must be bit-identical; ``tests/test_engine_equivalence.py``
enforces that contract.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.types import wrap_int
from repro.ir.values import Constant, MemoryObject, MemRef, VirtualRegister
from repro.runtime.context import BLOCKED, ExecutionContext
from repro.runtime.guarded_state import RecoveryStateGuard
from repro.runtime.memory import MachineMemory, MemoryError_, Pointer, Word


class ExecutionLimit(Exception):
    """The step budget was exhausted (runaway execution)."""


class Trap(Exception):
    """A run-time fault symptom (bad memory access, div-by-zero, ...)."""

    def __init__(self, reason: str, event_index: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.event_index = event_index


@dataclasses.dataclass
class StepEvent:
    """Description of one executed instruction, passed to hooks."""

    index: int
    func: str
    block: str
    inst_index: int
    inst: Instruction
    frame_id: int
    loads: List[Tuple[str, int]]
    stores: List[Tuple[str, int]]


@dataclasses.dataclass
class ExecResult:
    """Outcome of a completed (non-trapping) execution.

    ``snapshots`` are states of the run captured on the way (see
    :class:`Snapshot`); a campaign's golden run carries them so trials
    can resume from the nearest one.  They are not part of the result's
    identity: equality ignores them.
    """

    value: Optional[Word]
    events: int
    cost: int
    app_cost: int
    instrumentation_cost: int
    output: Dict[str, List[Word]]
    snapshots: Tuple["Snapshot", ...] = dataclasses.field(
        default=(), compare=False, repr=False,
    )

    @property
    def overhead(self) -> float:
        """Instrumentation cost as a fraction of application cost."""
        if self.app_cost == 0:
            return 0.0
        return self.instrumentation_cost / self.app_cost


class _Frame:
    __slots__ = (
        "id",
        "func",
        "regs",
        "block",
        "ip",
        "stack_instances",
        "ret_dest",
        "region_ckpts",
        "recovery_ptr",
    )

    def __init__(self, frame_id: int, func: Function) -> None:
        self.id = frame_id
        self.func = func
        self.regs: Dict[VirtualRegister, Word] = {}
        self.block = func.entry_label
        self.ip = 0
        self.stack_instances: Dict[str, str] = {}
        self.ret_dest: Optional[VirtualRegister] = None
        # region id -> list of undo records pushed since region entry
        self.region_ckpts: Dict[int, List[tuple]] = {}
        # Frame-local recovery slot: (region id, recovery block label).
        self.recovery_ptr: Optional[Tuple[int, str]] = None


@dataclasses.dataclass(frozen=True)
class FrameImage:
    """Restorable copy of one activation frame."""

    id: int
    func: str
    regs: Dict
    block: str
    ip: int
    stack_instances: Dict[str, str]
    ret_dest: Optional[VirtualRegister]
    region_ckpts: Dict[int, Tuple[tuple, ...]]
    recovery_ptr: Optional[Tuple[int, str]]

    @classmethod
    def of(cls, frame: _Frame) -> "FrameImage":
        return cls(
            id=frame.id,
            func=frame.func.name,
            regs=dict(frame.regs),
            block=frame.block,
            ip=frame.ip,
            stack_instances=dict(frame.stack_instances),
            ret_dest=frame.ret_dest,
            region_ckpts={
                rid: tuple(records)
                for rid, records in frame.region_ckpts.items()
            },
            recovery_ptr=frame.recovery_ptr,
        )

    def frame(self, module: Module) -> _Frame:
        """A live frame equal to the imaged one (shares nothing mutable)."""
        frame = _Frame(self.id, module.function(self.func))
        frame.regs = dict(self.regs)
        frame.block = self.block
        frame.ip = self.ip
        frame.stack_instances = dict(self.stack_instances)
        frame.ret_dest = self.ret_dest
        frame.region_ckpts = {
            rid: list(records) for rid, records in self.region_ckpts.items()
        }
        frame.recovery_ptr = self.recovery_ptr
        return frame


@dataclasses.dataclass(frozen=True, eq=False)
class Snapshot:
    """The complete single-thread state of a run between two steps.

    Captured by :func:`take_snapshot` on either engine; an interpreter
    built with ``snapshot=`` starts from it and ``resume()`` continues
    the run exactly as the captured one continued.  It holds the frame
    stack (register files, positions, undo logs, recovery pointers),
    a memory clone (cells, sizes and the heap counter, so allocation
    names repeat), the event and cost counters, the frame-id counter,
    ``peak_ckpt_words`` and a copy of the metadata guard (seals,
    shadows, taint and counters).  Scheduler state is not captured:
    a snapshot of a multithreaded run holds only the bound thread.

    Immutable by contract: restoring copies every mutable part, so one
    snapshot may seed any number of runs.
    """

    events: int
    cost: int
    instrumentation_cost: int
    frame_counter: int
    frames: Tuple[FrameImage, ...]
    memory: MachineMemory
    peak_ckpt_words: Dict[int, int]
    guard: RecoveryStateGuard


def take_snapshot(interp: "ReferenceInterpreter") -> Snapshot:
    """Capture ``interp``'s state at the entry of its next step.

    Valid between steps: from a ``pre_step`` hook, or after a step
    budget stopped the run (either engine parks an exact, resumable
    position, even between the halves of a fused pair).
    """
    return Snapshot(
        events=interp.events,
        cost=interp.cost,
        instrumentation_cost=interp.instrumentation_cost,
        frame_counter=interp._frame_counter,
        frames=tuple(FrameImage.of(frame) for frame in interp.frames),
        memory=interp.memory.clone(),
        peak_ckpt_words=dict(interp.peak_ckpt_words),
        guard=interp.guard.copy(),
    )


Hook = Callable[["ReferenceInterpreter", StepEvent], None]
ExternalFn = Callable[[Sequence[Word]], Word]


class ReferenceInterpreter:
    """Executes one module.

    Instances are **single-run**: each carries the mutable state of one
    execution (frames, machine memory, undo logs, recovery pointers,
    cost counters), so ``run()`` may be called at most once — a second
    call raises ``RuntimeError``.  ``resume()`` after an
    externally-handled :class:`Trap` continues the *same* run and is
    always allowed.

    The run's **inputs** are a different story: the ``Module``, a golden
    ``ExecResult``, and a pristine ``memory_image`` are never mutated by
    execution, so sharing them across any number of interpreter
    instances (and across campaign worker processes, the way
    ``runtime/parallel.py`` does) is safe and encouraged.  A fresh
    instance per run is exactly what guarantees that no ``_Frame``
    state — ``recovery_ptr``, ``region_ckpts``, register files — leaks
    from one trial into the next.

    ``snapshot`` starts the instance from a captured :class:`Snapshot`
    instead of a fresh run: its memory is cloned (once) in place of
    ``memory_image`` and the instance counts as started, so
    ``resume()`` continues the captured run and ``run()`` refuses.
    The guard level must equal the snapshot's.
    """

    def __init__(
        self,
        module: Module,
        max_steps: int = 20_000_000,
        pre_step: Optional[Hook] = None,
        post_step: Optional[Hook] = None,
        externals: Optional[Dict[str, ExternalFn]] = None,
        metadata_guard: str = "off",
        memory_image: Optional[MachineMemory] = None,
        max_threads: Optional[int] = None,
        quantum: Optional[int] = None,
        snapshot: Optional[Snapshot] = None,
    ) -> None:
        self.module = module
        self.max_steps = max_steps
        # Cooperative threading: max concurrently-live threads counting
        # main (None = unlimited; 1 = spawn traps), and the scheduling
        # quantum in dynamic instructions (None = scheduler default).
        # The scheduler itself is created lazily by the first spawn, so
        # single-threaded runs carry none of its machinery.
        self.max_threads = max_threads
        self.quantum = quantum
        self.scheduler = None
        self.context: Optional[ExecutionContext] = None
        self.pre_step = pre_step
        self.post_step = post_step
        self.externals: Dict[str, ExternalFn] = dict(externals or {})
        # Self-protection of the recovery metadata itself: seals every
        # checkpoint record and recovery pointer on write and verifies
        # them before any rollback consumes them (guarded_state.py).
        self.guard = RecoveryStateGuard(metadata_guard)
        # A campaign runs the same module thousands of times; cloning a
        # pristine image is much cheaper than re-materializing every
        # global, and bit-identical to it by construction.
        if snapshot is not None:
            memory_image = snapshot.memory
        if memory_image is not None:
            self.memory = memory_image.clone()
        else:
            self.memory = MachineMemory.pristine(module)
        self.frames: List[_Frame] = []
        self._started = False
        self.events = 0
        self.cost = 0
        self.app_cost = 0
        self.instrumentation_cost = 0
        self._frame_counter = 0
        self._pending_redirect: Optional[str] = None
        self._finished = False
        self._return_value: Optional[Word] = None
        # Peak undo-log footprint per region id, in words (registers
        # cost one word, memory entries two) — the measured counterpart
        # of Table 1's checkpoint-storage column.
        self.peak_ckpt_words: Dict[int, int] = {}
        if snapshot is not None:
            self._restore(snapshot)

    def _restore(self, snapshot: Snapshot) -> None:
        """Adopt every non-memory part of ``snapshot`` (copied)."""
        if snapshot.guard.level != self.guard.level:
            raise ValueError(
                f"snapshot taken at guard level {snapshot.guard.level!r} "
                f"cannot seed a run at {self.guard.level!r}"
            )
        self._started = True
        self.events = snapshot.events
        self.cost = snapshot.cost
        self.instrumentation_cost = snapshot.instrumentation_cost
        self.app_cost = snapshot.cost - snapshot.instrumentation_cost
        self._frame_counter = snapshot.frame_counter
        self.peak_ckpt_words = dict(snapshot.peak_ckpt_words)
        self.guard = snapshot.guard.copy()
        self._bind(ExecutionContext(0))
        self.frames.extend(image.frame(self.module) for image in snapshot.frames)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(
        self,
        function: str = "main",
        args: Sequence[Word] = (),
        output_objects: Sequence[str] = (),
    ) -> ExecResult:
        """Execute ``function`` to completion and snapshot ``output_objects``."""
        if self._started:
            raise RuntimeError(
                "interpreter instances are single-run: build a fresh "
                "instance per execution (sharing the module, golden "
                "result, and memory image across runs is fine)"
            )
        self._started = True
        self._bind(ExecutionContext(0))
        self._push_frame(self.module.function(function), args, ret_dest=None)
        return self.resume(output_objects)

    def resume(self, output_objects: Sequence[str] = ()) -> ExecResult:
        """Continue execution (e.g. after an externally-handled trap)."""
        while not self._finished:
            self._step()
        return ExecResult(
            value=self._return_value,
            events=self.events,
            cost=self.cost,
            app_cost=self.app_cost,
            instrumentation_cost=self.instrumentation_cost,
            output=self.memory.snapshot(output_objects),
        )

    @property
    def current_frame(self) -> _Frame:
        return self.frames[-1]

    # -- execution contexts ---------------------------------------------

    def _bind(self, ctx: ExecutionContext) -> None:
        """Make ``ctx`` the running thread.

        Binding aliases the context's frame list into ``self.frames``
        (so the hot loop mutates the context's own stack directly) and
        copies the per-thread scalars in.  The inverse, :meth:`_suspend`,
        copies the scalars back; both run only at scheduler switch
        points, never per step.
        """
        self.context = ctx
        self.frames = ctx.frames
        self._pending_redirect = ctx.pending_redirect
        self._finished = ctx.finished
        self._return_value = ctx.return_value

    def _suspend(self) -> None:
        """Write the bound scalars back into the current context."""
        ctx = self.context
        ctx.pending_redirect = self._pending_redirect
        ctx.finished = self._finished
        ctx.return_value = self._return_value

    def find_frame(self, frame_id: int) -> Optional[_Frame]:
        """Find a live frame by id across every thread's stack."""
        for frame in self.frames:
            if frame.id == frame_id:
                return frame
        if self.scheduler is not None:
            for ctx in self.scheduler.contexts.values():
                if ctx is self.context:
                    continue
                for frame in ctx.frames:
                    if frame.id == frame_id:
                        return frame
        return None

    def corrupt_register(self, frame_id: int, reg: VirtualRegister, value: Word) -> None:
        """Overwrite a register (fault-injection entry point)."""
        frame = self.find_frame(frame_id)
        if frame is None:
            raise KeyError(f"no live frame {frame_id}")
        frame.regs[reg] = value

    def trigger_recovery(self, immediate: bool = False) -> bool:
        """Detector hook: redirect control to the active recovery block.

        Returns True when a recovery block was entered; False when no
        recovery pointer is live for the current frame (the fault escaped
        its region — unrecoverable by Encore).

        With ``immediate=False`` (for calls from a post-step hook) the
        redirect is applied after the current step completes; with
        ``immediate=True`` (for calls from a trap handler, outside any
        step) control moves right away so ``resume`` re-enters at the
        recovery block instead of re-executing the trapping instruction.
        """
        if not self.frames:
            return False
        frame = self.frames[-1]
        if frame.recovery_ptr is None:
            return False
        # Verify the pointer before following it: a corrupted pointer is
        # a wild branch target.  May raise MetadataCorruption (detected,
        # graceful escalation) or repair from the shadow copy.
        ptr, guard_cost = self.guard.verify_pointer(frame)
        self._charge_guard(guard_cost)
        if ptr is None:
            return False
        _region_id, label = ptr
        if label not in frame.func.blocks:
            return False
        if immediate:
            frame.block = label
            frame.ip = 0
        else:
            self._pending_redirect = label
        return True

    # ------------------------------------------------------------------
    # frame management
    # ------------------------------------------------------------------

    def _push_frame(
        self,
        func: Function,
        args: Sequence[Word],
        ret_dest: Optional[VirtualRegister],
    ) -> None:
        if len(args) != len(func.params):
            raise TypeError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        self._frame_counter += 1
        frame = _Frame(self._frame_counter, func)
        frame.ret_dest = ret_dest
        for param, arg in zip(func.params, args):
            frame.regs[param] = arg
        for name, obj in func.stack_objects.items():
            instance = self.memory.materialize(obj, f"{name}@f{frame.id}")
            frame.stack_instances[name] = instance
        self.frames.append(frame)

    def _pop_frame(self, value: Optional[Word]) -> None:
        frame = self.frames.pop()
        for instance in frame.stack_instances.values():
            self.memory.release(instance)
        if not self.frames:
            self._finished = True
            self._return_value = value
        elif frame.ret_dest is not None:
            self.frames[-1].regs[frame.ret_dest] = value if value is not None else 0

    # ------------------------------------------------------------------
    # value plumbing
    # ------------------------------------------------------------------

    def _eval(self, frame: _Frame, operand) -> Word:
        if isinstance(operand, Constant):
            return operand.value
        return frame.regs.get(operand, 0)

    def _resolve(self, frame: _Frame, ref: MemRef) -> Tuple[str, int]:
        index = self._eval(frame, ref.index)
        if isinstance(index, float):
            index = int(index)
        base = ref.base
        if isinstance(base, MemoryObject):
            if base.kind == "stack":
                name = frame.stack_instances.get(base.name)
                if name is None:
                    raise Trap(
                        f"stack object {base.name} not in frame", self.events
                    )
            else:
                name = base.name
            return name, index
        value = frame.regs.get(base)
        if not isinstance(value, Pointer):
            raise Trap(f"indirect access through non-pointer {base}", self.events)
        return value.obj, value.offset + index

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def _step(self) -> None:
        if self.events >= self.max_steps:
            raise ExecutionLimit(f"exceeded {self.max_steps} dynamic instructions")
        frame = self.frames[-1]
        block = frame.func.blocks[frame.block]
        if frame.ip >= len(block.instructions):
            raise Trap(f"fell off end of block {frame.block}", self.events)
        inst = block.instructions[frame.ip]

        event = StepEvent(
            index=self.events,
            func=frame.func.name,
            block=frame.block,
            inst_index=frame.ip,
            inst=inst,
            frame_id=frame.id,
            loads=[],
            stores=[],
        )
        if self.pre_step is not None:
            self.pre_step(self, event)

        self._execute(frame, inst, event)

        self.events += 1
        self.cost += inst.dynamic_cost
        if inst.is_instrumentation:
            self.instrumentation_cost += inst.dynamic_cost
        else:
            self.app_cost += inst.dynamic_cost

        if self.post_step is not None:
            self.post_step(self, event)

        if self._pending_redirect is not None and self.frames:
            self.frames[-1].block = self._pending_redirect
            self.frames[-1].ip = 0
            self._pending_redirect = None

        if self.scheduler is not None:
            self.scheduler.after_step(self, inst.opcode)

    # ------------------------------------------------------------------
    # instruction semantics
    # ------------------------------------------------------------------

    def _execute(self, frame: _Frame, inst: Instruction, event: StepEvent) -> None:
        op = inst.opcode
        handler = _DISPATCH.get(op)
        if handler is None:
            raise Trap(f"unknown opcode {op}", self.events)
        handler(self, frame, inst, event)

    def _advance(self, frame: _Frame) -> None:
        frame.ip += 1

    def _charge_guard(self, guard_cost: int) -> None:
        """Charge metadata-guard work as instrumentation cost.

        Seal/verify/repair work rides on the instrumentation
        instruction that caused it, in the same dynamic-instruction
        currency as the checkpoints themselves, so ``--guard`` levels
        change measured overhead but never the event stream.
        """
        if guard_cost:
            self.cost += guard_cost
            self.instrumentation_cost += guard_cost

    # -- arithmetic -----------------------------------------------------

    def _do_binop(self, frame: _Frame, inst, event) -> None:
        lhs = self._eval(frame, inst.lhs)
        rhs = self._eval(frame, inst.rhs)
        frame.regs[inst.dest] = self._apply_binop(inst.op, lhs, rhs)
        self._advance(frame)

    def _apply_binop(self, op: str, lhs: Word, rhs: Word) -> Word:
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            return self._pointer_binop(op, lhs, rhs)
        if op == "add":
            return wrap_int(int(lhs) + int(rhs))
        if op == "sub":
            return wrap_int(int(lhs) - int(rhs))
        if op == "mul":
            return wrap_int(int(lhs) * int(rhs))
        if op == "sdiv":
            if int(rhs) == 0:
                raise Trap("integer division by zero", self.events)
            return wrap_int(int(int(lhs) / int(rhs)))  # trunc toward zero
        if op == "srem":
            if int(rhs) == 0:
                raise Trap("integer remainder by zero", self.events)
            return wrap_int(int(lhs) - int(int(lhs) / int(rhs)) * int(rhs))
        if op == "and":
            return wrap_int(int(lhs) & int(rhs))
        if op == "or":
            return wrap_int(int(lhs) | int(rhs))
        if op == "xor":
            return wrap_int(int(lhs) ^ int(rhs))
        if op == "shl":
            return wrap_int(int(lhs) << (int(rhs) & 63))
        if op == "lshr":
            return wrap_int((int(lhs) & ((1 << 64) - 1)) >> (int(rhs) & 63))
        if op == "ashr":
            return wrap_int(int(lhs) >> (int(rhs) & 63))
        if op == "min":
            return min(int(lhs), int(rhs))
        if op == "max":
            return max(int(lhs), int(rhs))
        if op == "fadd":
            return float(lhs) + float(rhs)
        if op == "fsub":
            return float(lhs) - float(rhs)
        if op == "fmul":
            return float(lhs) * float(rhs)
        if op == "fdiv":
            if float(rhs) == 0.0:
                raise Trap("float division by zero", self.events)
            return float(lhs) / float(rhs)
        if op == "fmin":
            return min(float(lhs), float(rhs))
        if op == "fmax":
            return max(float(lhs), float(rhs))
        raise Trap(f"unhandled binop {op}", self.events)

    def _pointer_binop(self, op: str, lhs: Word, rhs: Word) -> Word:
        if op == "add":
            if isinstance(lhs, Pointer) and isinstance(rhs, (int, float)):
                return lhs.advanced(int(rhs))
            if isinstance(rhs, Pointer) and isinstance(lhs, (int, float)):
                return rhs.advanced(int(lhs))
        if op == "sub" and isinstance(lhs, Pointer):
            if isinstance(rhs, (int, float)):
                return lhs.advanced(-int(rhs))
            if isinstance(rhs, Pointer) and rhs.obj == lhs.obj:
                return lhs.offset - rhs.offset
        raise Trap(f"invalid pointer arithmetic: {op}", self.events)

    def _do_unop(self, frame: _Frame, inst, event) -> None:
        src = self._eval(frame, inst.src)
        op = inst.op
        if isinstance(src, Pointer):
            raise Trap(f"unary {op} on pointer", self.events)
        if op == "neg":
            value: Word = wrap_int(-int(src))
        elif op == "not":
            value = wrap_int(~int(src))
        elif op == "fneg":
            value = -float(src)
        elif op == "sitofp":
            value = float(int(src))
        elif op == "fptosi":
            value = wrap_int(int(float(src)))
        elif op == "fsqrt":
            if float(src) < 0:
                raise Trap("sqrt of negative", self.events)
            value = math.sqrt(float(src))
        elif op == "fabs":
            value = abs(float(src))
        else:
            raise Trap(f"unhandled unop {op}", self.events)
        frame.regs[inst.dest] = value
        self._advance(frame)

    def _do_cmp(self, frame: _Frame, inst, event) -> None:
        lhs = self._eval(frame, inst.lhs)
        rhs = self._eval(frame, inst.rhs)
        pred = inst.pred
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            if pred == "eq":
                result = int(lhs == rhs)
            elif pred == "ne":
                result = int(lhs != rhs)
            else:
                raise Trap(f"pointer compare {pred}", self.events)
        elif pred in ("eq", "feq"):
            result = int(lhs == rhs)
        elif pred in ("ne", "fne"):
            result = int(lhs != rhs)
        elif pred in ("slt", "flt"):
            result = int(lhs < rhs)
        elif pred in ("sle", "fle"):
            result = int(lhs <= rhs)
        elif pred in ("sgt", "fgt"):
            result = int(lhs > rhs)
        elif pred in ("sge", "fge"):
            result = int(lhs >= rhs)
        else:
            raise Trap(f"unhandled predicate {pred}", self.events)
        frame.regs[inst.dest] = result
        self._advance(frame)

    def _do_select(self, frame: _Frame, inst, event) -> None:
        cond = self._eval(frame, inst.cond)
        chosen = inst.if_true if _truthy(cond) else inst.if_false
        frame.regs[inst.dest] = self._eval(frame, chosen)
        self._advance(frame)

    def _do_mov(self, frame: _Frame, inst, event) -> None:
        frame.regs[inst.dest] = self._eval(frame, inst.src)
        self._advance(frame)

    def _do_addrof(self, frame: _Frame, inst, event) -> None:
        name, index = self._resolve(frame, inst.ref)
        frame.regs[inst.dest] = Pointer(name, index)
        self._advance(frame)

    # -- memory -----------------------------------------------------------

    def _do_load(self, frame: _Frame, inst, event) -> None:
        name, index = self._resolve(frame, inst.ref)
        try:
            value = self.memory.read(name, index)
        except MemoryError_ as exc:
            raise Trap(str(exc), self.events) from None
        event.loads.append((name, index))
        frame.regs[inst.dest] = value
        self._advance(frame)

    def _do_store(self, frame: _Frame, inst, event) -> None:
        name, index = self._resolve(frame, inst.ref)
        value = self._eval(frame, inst.value)
        try:
            self.memory.write(name, index, value)
        except MemoryError_ as exc:
            raise Trap(str(exc), self.events) from None
        event.stores.append((name, index))
        self._advance(frame)

    def _do_alloc(self, frame: _Frame, inst, event) -> None:
        size = self._eval(frame, inst.size)
        if isinstance(size, float):
            size = int(size)
        site = f"heap:{frame.func.name}:{frame.block}"
        try:
            name = self.memory.allocate_heap(int(size), site)
        except MemoryError_ as exc:
            raise Trap(str(exc), self.events) from None
        frame.regs[inst.dest] = Pointer(name, 0)
        self._advance(frame)

    # -- control ------------------------------------------------------------

    def _do_br(self, frame: _Frame, inst, event) -> None:
        cond = self._eval(frame, inst.cond)
        target = inst.if_true if _truthy(cond) else inst.if_false
        frame.block = target
        frame.ip = 0

    def _do_jmp(self, frame: _Frame, inst, event) -> None:
        frame.block = inst.target
        frame.ip = 0

    def _do_call(self, frame: _Frame, inst, event) -> None:
        args = [self._eval(frame, a) for a in inst.args]
        callee = self.module.get_function(inst.callee)
        self._advance(frame)
        if callee is not None:
            self._push_frame(callee, args, ret_dest=inst.dest)
            return
        handler = self.externals.get(inst.callee, _default_external)
        result = handler(args)
        if inst.dest is not None:
            frame.regs[inst.dest] = result if result is not None else 0

    def _do_ret(self, frame: _Frame, inst, event) -> None:
        value = self._eval(frame, inst.value) if inst.value is not None else None
        self._pop_frame(value)

    # -- threads -------------------------------------------------------------

    def _do_spawn(self, frame: _Frame, inst, event) -> None:
        callee = self.module.get_function(inst.callee)
        if callee is None:
            raise Trap(f"spawn of unknown function {inst.callee}", self.events)
        args = [self._eval(frame, a) for a in inst.args]
        if len(args) != len(callee.params):
            raise TypeError(
                f"{callee.name} expects {len(callee.params)} args, got {len(args)}"
            )
        if self.scheduler is None:
            # First spawn of the run: bring up the scheduler around the
            # already-running context (the main one that run() or a
            # snapshot restore bound).
            from repro.runtime.scheduler import CooperativeScheduler

            self.scheduler = CooperativeScheduler(quantum=self.quantum)
            self.scheduler.adopt(self.context, self.events)
        if (
            self.max_threads is not None
            and self.scheduler.live_count() + 1 > self.max_threads
        ):
            raise Trap(
                f"spawn exceeds thread limit of {self.max_threads}", self.events
            )
        ctx = self.scheduler.create_context()
        self._frame_counter += 1
        root = _Frame(self._frame_counter, callee)
        for param, arg in zip(callee.params, args):
            root.regs[param] = arg
        for name, obj in callee.stack_objects.items():
            instance = self.memory.materialize(obj, f"{name}@f{root.id}")
            root.stack_instances[name] = instance
        ctx.frames.append(root)
        frame.regs[inst.dest] = ctx.tid
        self._advance(frame)

    def _do_join(self, frame: _Frame, inst, event) -> None:
        tid = self._eval(frame, inst.thread)
        if isinstance(tid, float):
            tid = int(tid)
        sched = self.scheduler
        target = (
            sched.contexts.get(tid)
            if sched is not None and isinstance(tid, int)
            else None
        )
        if target is None:
            raise Trap(f"join of unknown thread {tid}", self.events)
        if target.state == "done":
            value = target.return_value
            frame.regs[inst.dest] = value if value is not None else 0
            self._advance(frame)
            return
        # Target still live: charge this attempt, leave ip untouched so
        # the join re-executes when this thread is scheduled again, and
        # let the scheduler switch us out at the end of the step.
        self.context.state = BLOCKED
        self.context.waiting_on = tid

    # -- Encore instrumentation ----------------------------------------------

    def _do_set_recovery_ptr(self, frame: _Frame, inst, event) -> None:
        frame.recovery_ptr = (inst.region_id, inst.recovery_label)
        frame.region_ckpts[inst.region_id] = []
        self._charge_guard(self.guard.on_publish(frame))
        self._advance(frame)

    def _do_clear_recovery_ptr(self, frame: _Frame, inst, event) -> None:
        # Conditional on the region id: a join block reachable from
        # several regions only invalidates the pointer its own exit
        # published.  The undo log is dropped with it — nothing can
        # roll back into the region any more.
        if frame.recovery_ptr is not None and frame.recovery_ptr[0] == inst.region_id:
            frame.recovery_ptr = None
            frame.region_ckpts[inst.region_id] = []
            self._charge_guard(self.guard.on_clear(frame, inst.region_id))
        self._advance(frame)

    def _do_ckpt_reg(self, frame: _Frame, inst, event) -> None:
        record = ("reg", inst.reg, frame.regs.get(inst.reg, 0))
        frame.region_ckpts.setdefault(inst.region_id, []).append(record)
        self._charge_guard(self.guard.on_push(frame, inst.region_id, record))
        self._track_ckpt(frame, inst.region_id)
        self._advance(frame)

    def _do_ckpt_mem(self, frame: _Frame, inst, event) -> None:
        name, index = self._resolve(frame, inst.ref)
        try:
            value = self.memory.read(name, index)
        except MemoryError_ as exc:
            raise Trap(str(exc), self.events) from None
        event.loads.append((name, index))
        record = ("mem", name, index, value)
        frame.region_ckpts.setdefault(inst.region_id, []).append(record)
        self._charge_guard(self.guard.on_push(frame, inst.region_id, record))
        self._track_ckpt(frame, inst.region_id)
        self._advance(frame)

    def _track_ckpt(self, frame: _Frame, region_id: int) -> None:
        words = sum(
            2 if record[0] == "mem" else 1
            for record in frame.region_ckpts.get(region_id, ())
        )
        if words > self.peak_ckpt_words.get(region_id, 0):
            self.peak_ckpt_words[region_id] = words

    def _do_restore(self, frame: _Frame, inst, event) -> None:
        # Verify the undo log before consuming it: corrupted records are
        # repaired (dup) or escalate (checksum) instead of restoring
        # garbage.  May raise MetadataCorruption.
        records, guard_cost = self.guard.verify_restore(frame, inst.region_id)
        self._charge_guard(guard_cost)
        for record in reversed(records):
            if record[0] == "reg":
                _, reg, value = record
                frame.regs[reg] = value
            else:
                _, name, index, value = record
                if self.memory.exists(name):
                    try:
                        self.memory.write(name, index, value)
                    except MemoryError_ as exc:
                        # A corrupted saved address can point out of
                        # bounds; surface it as a visible trap symptom
                        # rather than an interpreter crash.
                        raise Trap(str(exc), self.events) from None
                    event.stores.append((name, index))
        frame.region_ckpts[inst.region_id] = []
        self.guard.on_reset(frame, inst.region_id)
        self._advance(frame)


def _truthy(value: Word) -> bool:
    if isinstance(value, Pointer):
        return True
    return bool(value)


def _default_external(args: Sequence[Word]) -> Word:
    return 0


_DISPATCH = {
    "binop": ReferenceInterpreter._do_binop,
    "unop": ReferenceInterpreter._do_unop,
    "cmp": ReferenceInterpreter._do_cmp,
    "select": ReferenceInterpreter._do_select,
    "mov": ReferenceInterpreter._do_mov,
    "addrof": ReferenceInterpreter._do_addrof,
    "load": ReferenceInterpreter._do_load,
    "store": ReferenceInterpreter._do_store,
    "alloc": ReferenceInterpreter._do_alloc,
    "br": ReferenceInterpreter._do_br,
    "jmp": ReferenceInterpreter._do_jmp,
    "call": ReferenceInterpreter._do_call,
    "ret": ReferenceInterpreter._do_ret,
    "spawn": ReferenceInterpreter._do_spawn,
    "join": ReferenceInterpreter._do_join,
    "set_recovery_ptr": ReferenceInterpreter._do_set_recovery_ptr,
    "clear_recovery_ptr": ReferenceInterpreter._do_clear_recovery_ptr,
    "ckpt_reg": ReferenceInterpreter._do_ckpt_reg,
    "ckpt_mem": ReferenceInterpreter._do_ckpt_mem,
    "restore": ReferenceInterpreter._do_restore,
}


def __getattr__(name: str):
    # ``Interpreter`` stays importable from here for the whole repo, but
    # resolves to the session's default engine (PEP 562).  The lazy
    # import breaks the cycle interpreter -> engine -> predecode ->
    # interpreter.
    if name == "Interpreter":
        from repro.runtime.engine import engine_class

        return engine_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def bitflip(value: Word, bit: int) -> Word:
    """Flip one bit of a run-time value (the transient-fault model).

    Integers flip a bit of their 64-bit two's-complement pattern; floats
    flip a bit of their IEEE-754 representation; pointers flip a bit of
    their offset (modelling a corrupted index computation).
    """
    if isinstance(value, Pointer):
        return Pointer(value.obj, value.offset ^ (1 << (bit % 16)))
    if isinstance(value, float):
        packed = struct.pack("<d", value)
        as_int = int.from_bytes(packed, "little") ^ (1 << (bit % 64))
        result = struct.unpack("<d", as_int.to_bytes(8, "little"))[0]
        if math.isnan(result) or math.isinf(result):
            return 0.0 if value == 0 else -value
        return result
    return wrap_int(int(value) ^ (1 << (bit % 64)))
