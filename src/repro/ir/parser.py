"""A parser for the textual IR format emitted by :mod:`repro.ir.printer`.

``parse_module(module_to_text(m))`` reconstructs a structurally
identical module, which the tests verify by comparing re-printed text
and execution results.  Register pointer-ness is not written in the
text, so the parser infers it: registers defined by ``addrof``/``alloc``
or used as a memory-reference base are pointer-typed.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.ir.function import Function
from repro.ir.instructions import (
    AddrOf,
    Alloc,
    BINARY_OPS,
    BinOp,
    Branch,
    Call,
    CheckpointMem,
    CheckpointReg,
    ClearRecoveryPtr,
    Compare,
    Join,
    Jump,
    Load,
    Move,
    RestoreCheckpoints,
    Ret,
    Select,
    SetRecoveryPtr,
    Spawn,
    Store,
    UNARY_OPS,
    UnaryOp,
)
from repro.ir.module import Module
from repro.ir.types import Type
from repro.ir.values import Constant, MemoryObject, MemRef, VirtualRegister


class ParseError(Exception):
    """Malformed IR text."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line!r}")
        self.line_no = line_no
        self.line = line


_OBJECT_RE = re.compile(
    r"^(global|stack)\s+@(\w+)\[(\d+)\](?:\s*=\s*\[(.*)\])?$"
)
_FUNC_RE = re.compile(r"^func\s+(\w+)\(([^)]*)\)\s*\{$")
_LABEL_RE = re.compile(r"^([\w.]+):$")
_REF_RE = re.compile(r"^([@%])(\w+)\[(.+)\]$")
_CALL_RE = re.compile(r"^call\s+(\w+)\((.*)\)$")
_SPAWN_RE = re.compile(r"^spawn\s+(\w+)\((.*)\)$")


def _parse_number(token: str) -> Union[int, float]:
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    return float(token)


class _FunctionParser:
    """Parses one function body with two-pass pointer-type inference."""

    def __init__(self, module: Module, name: str, param_names: List[str]) -> None:
        self.module = module
        self.name = name
        self.param_names = param_names
        self.ptr_regs: Set[str] = set()
        self.stack_objects: Dict[str, MemoryObject] = {}
        # (label, [raw instruction lines with line numbers])
        self.blocks: List[Tuple[str, List[Tuple[int, str]]]] = []
        self.labels: Set[str] = set()

    # -- pass 1: structure + pointer inference -------------------------------

    def scan_line(self, line_no: int, line: str) -> None:
        ref_match = re.search(r"%(\w+)\[", line)
        if ref_match:
            self.ptr_regs.add(ref_match.group(1))
        dest_match = re.match(r"^%(\w+) = (addrof|alloc)\b", line)
        if dest_match:
            self.ptr_regs.add(dest_match.group(1))

    # -- operand/reference helpers -------------------------------------------

    def reg(self, name: str) -> VirtualRegister:
        reg_type = Type.PTR if name in self.ptr_regs else Type.I64
        return VirtualRegister(name, reg_type)

    def operand(self, token: str, line_no: int, line: str):
        token = token.strip()
        if token.startswith("%"):
            return self.reg(token[1:])
        try:
            value = _parse_number(token)
        except ValueError:
            raise ParseError(f"bad operand {token!r}", line_no, line) from None
        if isinstance(value, float):
            return Constant(value, Type.F64)
        return Constant(value)

    def memref(self, token: str, line_no: int, line: str) -> MemRef:
        match = _REF_RE.match(token.strip())
        if not match:
            raise ParseError(f"bad memory reference {token!r}", line_no, line)
        sigil, base_name, index_token = match.groups()
        if sigil == "@":
            base = self.stack_objects.get(base_name) or self.module.globals.get(
                base_name
            )
            if base is None:
                raise ParseError(
                    f"unknown memory object @{base_name}", line_no, line
                )
        else:
            base = self.reg(base_name)
        return MemRef(base, self.operand(index_token, line_no, line))

    # -- pass 2: instruction parsing ------------------------------------------

    def parse_instruction(self, line_no: int, line: str):
        # Assignment forms: "%dest = <rhs>".
        assign = re.match(r"^%(\w+) = (.+)$", line)
        if assign:
            dest_name, rhs = assign.groups()
            return self._parse_assignment(dest_name, rhs.strip(), line_no, line)
        return self._parse_statement(line, line_no)

    def _split_args(self, text: str) -> List[str]:
        return [part.strip() for part in text.split(",")] if text.strip() else []

    def _parse_assignment(self, dest_name: str, rhs: str, line_no: int, line: str):
        dest = self.reg(dest_name)
        head, _, tail = rhs.partition(" ")
        if head == "mov":
            return Move(dest, self.operand(tail, line_no, line))
        if head == "load":
            return Load(dest, self.memref(tail, line_no, line))
        if head == "addrof":
            return AddrOf(dest, self.memref(tail, line_no, line))
        if head == "alloc":
            return Alloc(dest, self.operand(tail, line_no, line))
        if head == "select":
            parts = self._split_args(tail)
            if len(parts) != 3:
                raise ParseError("select needs 3 operands", line_no, line)
            return Select(dest, *(self.operand(p, line_no, line) for p in parts))
        if head.startswith("cmp."):
            pred = head[len("cmp."):]
            parts = self._split_args(tail)
            if len(parts) != 2:
                raise ParseError("cmp needs 2 operands", line_no, line)
            return Compare(
                pred, dest, *(self.operand(p, line_no, line) for p in parts)
            )
        if head in BINARY_OPS:
            parts = self._split_args(tail)
            if len(parts) != 2:
                raise ParseError(f"{head} needs 2 operands", line_no, line)
            return BinOp(
                head, dest, *(self.operand(p, line_no, line) for p in parts)
            )
        if head in UNARY_OPS:
            return UnaryOp(head, dest, self.operand(tail, line_no, line))
        if head == "join":
            return Join(dest, self.operand(tail, line_no, line))
        spawn = _SPAWN_RE.match(rhs)
        if spawn:
            callee, args = spawn.groups()
            return Spawn(
                dest,
                callee,
                [self.operand(a, line_no, line) for a in self._split_args(args)],
            )
        call = _CALL_RE.match(rhs)
        if call:
            callee, args = call.groups()
            return Call(
                dest,
                callee,
                [self.operand(a, line_no, line) for a in self._split_args(args)],
            )
        raise ParseError(f"unknown instruction {rhs!r}", line_no, line)

    def _parse_statement(self, line: str, line_no: int):
        head, _, tail = line.partition(" ")
        if head == "store":
            ref_token, _, value_token = tail.partition(",")
            return Store(
                self.memref(ref_token, line_no, line),
                self.operand(value_token, line_no, line),
            )
        if head == "br":
            parts = self._split_args(tail)
            if len(parts) != 3:
                raise ParseError("br needs cond and 2 labels", line_no, line)
            return Branch(self.operand(parts[0], line_no, line), parts[1], parts[2])
        if head == "jmp":
            return Jump(tail.strip())
        if head == "ret" or line.strip() == "ret":
            token = tail.strip()
            return Ret(self.operand(token, line_no, line) if token else None)
        if head == "set_recovery_ptr":
            rid, label = self._split_args(tail)
            return SetRecoveryPtr(int(rid[1:]), label)
        if head == "clear_recovery_ptr":
            return ClearRecoveryPtr(int(tail.strip()[1:]))
        if head == "ckpt_reg":
            rid, reg_token = self._split_args(tail)
            return CheckpointReg(int(rid[1:]), self.reg(reg_token[1:]))
        if head == "ckpt_mem":
            rid, ref_token = self._split_args(tail)
            return CheckpointMem(int(rid[1:]), self.memref(ref_token, line_no, line))
        if head == "restore":
            return RestoreCheckpoints(int(tail.strip()[1:]))
        call = _CALL_RE.match(line)
        if call:
            callee, args = call.groups()
            return Call(
                None,
                callee,
                [self.operand(a, line_no, line) for a in self._split_args(args)],
            )
        raise ParseError(f"unknown statement {line!r}", line_no, line)


def parse_module(text: str) -> Module:
    """Parse the printer's textual format back into a :class:`Module`."""
    lines = text.splitlines()
    module: Optional[Module] = None
    current: Optional[_FunctionParser] = None
    parsers: List[_FunctionParser] = []

    # Pass 1: structure, declarations, pointer inference.
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            # Comment lines: provenance headers on checked-in examples
            # and fuzz-corpus repros.  The printer never emits them, so
            # print -> parse -> print stays a fixpoint.
            continue
        if line.startswith("module "):
            module = Module(line[len("module "):].strip())
            continue
        if module is None:
            raise ParseError("text must start with a module header", line_no, raw)
        if line.startswith("extern "):
            module.declare_external(line[len("extern "):].strip())
            continue
        obj_match = _OBJECT_RE.match(line)
        if obj_match:
            kind, name, size, init_text = obj_match.groups()
            # ``= []`` is an empty-but-present initializer — distinct
            # from no initializer at all (``init_text is None``), which
            # the printer would otherwise fail to round-trip.
            if init_text is None:
                init = None
            elif not init_text.strip():
                init = []
            else:
                try:
                    init = [
                        _parse_number(tok.strip())
                        for tok in init_text.split(",")
                    ]
                except ValueError:
                    raise ParseError("bad initializer", line_no, raw) from None
            if kind == "global":
                if name in module.globals:
                    raise ParseError(f"duplicate global @{name}", line_no, raw)
                module.add_global(name, int(size), init=init)
            else:
                if current is None:
                    raise ParseError("stack object outside function", line_no, raw)
                if name in current.stack_objects:
                    raise ParseError(
                        f"duplicate stack object @{name} in {current.name}",
                        line_no, raw,
                    )
                obj = MemoryObject(name, int(size), kind="stack", init=init)
                current.stack_objects[name] = obj
            continue
        func_match = _FUNC_RE.match(line)
        if func_match:
            name, params_text = func_match.groups()
            if any(parser.name == name for parser in parsers):
                raise ParseError(f"duplicate function {name}", line_no, raw)
            params = [
                p.strip()[1:] for p in params_text.split(",") if p.strip()
            ]
            current = _FunctionParser(module, name, params)
            parsers.append(current)
            continue
        if line == "}":
            current = None
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            if current is None:
                raise ParseError("label outside function", line_no, raw)
            label = label_match.group(1)
            if label in current.labels:
                raise ParseError(
                    f"duplicate block label {label} in {current.name}",
                    line_no, raw,
                )
            current.labels.add(label)
            current.blocks.append((label, []))
            continue
        if current is None or not current.blocks:
            raise ParseError("instruction outside a block", line_no, raw)
        current.blocks[-1][1].append((line_no, line))
        current.scan_line(line_no, line)

    if module is None:
        raise ParseError("empty input", 0, "")

    # Pass 2: build functions and instructions.
    for parser in parsers:
        params = [parser.reg(p) for p in parser.param_names]
        func = module.add_function(parser.name, params=params)
        for obj in parser.stack_objects.values():
            func.stack_objects[obj.name] = obj
        for label, _body in parser.blocks:
            func.add_block(label)
        for label, body in parser.blocks:
            block = func.blocks[label]
            for line_no, line in body:
                try:
                    inst = parser.parse_instruction(line_no, line)
                except ValueError as exc:
                    # Malformed operands of the Encore opcodes (``%r``
                    # region ids, operand counts) surface as ValueError.
                    raise ParseError(str(exc), line_no, line) from None
                block.instructions.append(inst)
    return module
