"""Times at a reference host speed.

On a shared host the speed of a core drifts by a third or more within
seconds, as other tenants load the caches and sibling threads; the
program and any other pure-Python code slow down together.  So the
benchmark times a fixed pure-Python kernel next to the work it
measures and reports each stretch of work as

    wall seconds * NOMINAL_S / kernel seconds

that is, as seconds on a host where the kernel takes ``NOMINAL_S``.
The kernel is a small register-machine interpreter, like the program's
own hot loop in kind, and imports nothing from the program: a change to
the program moves the normalized times, a change in host speed does not.
"""

from __future__ import annotations

import array
import contextlib
import dataclasses
import functools
import os
import statistics
import struct
import time
from typing import Iterator, List, Sequence, Tuple

#: Seconds the kernel takes on the reference host (2 vCPU Intel Xeon
#: VM, Python 3.11), so that normalized times read close to wall times
#: there.
NOMINAL_S = 0.0028

#: An array, not a list: reading a list item writes its reference
#: count, and in a forked worker that copies the page it sits on.
_MEMORY = array.array("H", range(1 << 16))
#: (opcode, register, operand) triples; the program loops over them.
_PROGRAM = (
    (0, 1, 3), (1, 2, 40503), (0, 2, 1), (2, 2, 977), (1, 3, 7919),
    (3, 3, 5), (0, 1, 2), (2, 1, 31337), (1, 4, 65521), (3, 4, 0),
)
KERNEL_STEPS = 12000
#: A trial's spool record: its start and end, and the kernel's end.
_RECORD = struct.Struct("ddd")


class _Frame:
    __slots__ = ("pc", "regs", "steps")


def kernel() -> int:
    """Interpret ``KERNEL_STEPS`` instructions of ``_PROGRAM``; return a
    checksum."""
    memory = _MEMORY
    steps = KERNEL_STEPS
    scratch = [0] * 4096
    frame = _Frame()
    frame.pc = 0
    frame.regs = [0] * 8
    frame.steps = 0

    def add(reg, operand):
        frame.regs[reg] = (frame.regs[reg] + operand) & 0xFFFF

    def load(reg, operand):
        frame.regs[reg] = memory[(frame.regs[reg] * operand) & 0xFFFF]

    def store(reg, operand):
        scratch[(frame.regs[reg] ^ operand) & 0xFFF] = frame.regs[reg]

    def branch(reg, operand):
        if frame.regs[reg] & 1:
            frame.pc = operand

    handlers = {0: add, 1: load, 2: store, 3: branch}
    program = _PROGRAM
    size = len(program)
    while frame.steps < steps:
        opcode, reg, operand = program[frame.pc]
        frame.pc = (frame.pc + 1) % size
        handlers[opcode](reg, operand)
        frame.steps += 1
    return sum(frame.regs) + sum(scratch)


def kernel_seconds(repeat: int) -> float:
    """Mean wall time of ``repeat`` kernel runs."""
    samples = []
    for _ in range(repeat):
        begin = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - begin)
    return statistics.fmean(samples)


#: Kernel runs within this many seconds of a lap normalize it.  Host
#: speed shifts both within milliseconds and over seconds: the window
#: is wide enough to average the first and narrow enough to follow the
#: second.
WINDOW_S = 1.0

#: A lap: (start, end, seconds of work in it).  A kernel run: (the
#: time it ended, its seconds).  Times are ``perf_counter`` times,
#: which forked processes share.
Lap = Tuple[float, float, float]
Run = Tuple[float, float]


def at_reference_speed(laps: Sequence[Lap], runs: Sequence[Run]) -> List[float]:
    """Each lap's seconds of work at reference speed: normalized by the
    mean of every kernel run within ``WINDOW_S`` of the lap."""
    seconds = []
    for start, end, work in laps:
        mean = statistics.fmean(
            run for at, run in runs
            if start - WINDOW_S <= at <= end + WINDOW_S
        )
        seconds.append(work * NOMINAL_S / mean)
    return seconds


class Stopwatch:
    """Laps of work, timed at reference speed.

    The kernel runs at the start and after every lap, outside the laps.
    """

    def __init__(self) -> None:
        self.runs: List[Run] = []
        self.laps: List[Lap] = []
        self._run_kernel()
        self.started = self._mark = time.perf_counter()

    def _run_kernel(self) -> None:
        begin = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.runs.append((end, end - begin))

    def lap(self, inside: Sequence[Run] = (), jobs: int = 1) -> None:
        """End the current lap and start the next.

        ``inside`` are kernel runs that ``jobs`` parallel processes made
        during the lap; their time, shared among the processes, is not
        work.
        """
        end = time.perf_counter()
        work = end - self._mark - sum(run for _, run in inside) / jobs
        self.laps.append((self._mark, end, work))
        self.runs += inside
        self._run_kernel()
        self._mark = time.perf_counter()

    @property
    def wall(self) -> float:
        """Wall seconds of work in every lap so far."""
        return sum(work for _, _, work in self.laps)

    def seconds(self) -> List[float]:
        """Every lap's seconds at reference speed."""
        return at_reference_speed(self.laps, self.runs)


@dataclasses.dataclass
class Trials:
    """What :func:`after_each_trial` collected: a lap per trial, and the
    kernel run after each."""

    laps: List[Lap] = dataclasses.field(default_factory=list)
    runs: List[Run] = dataclasses.field(default_factory=list)


@contextlib.contextmanager
def after_each_trial(spool: str) -> Iterator[Trials]:
    """Time every fault-injection trial, and the kernel after it, in
    whichever process runs the trial; the yielded :class:`Trials` is
    filled on exit.

    Pool workers keep every core busy: the benchmark process could not
    run the kernel during a pool campaign without slowing them, and
    only a worker sees the speed its trials see.  Workers
    look ``run_planned_trial`` up through :mod:`repro.runtime.sfi` at
    call time and are forked, so patching that module reaches them;
    they leave through ``os._exit``, so each appends its records to
    ``spool`` as it goes.
    """
    from repro.runtime import sfi

    original = sfi.run_planned_trial

    @functools.wraps(original)
    def run_planned_trial(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        end = time.perf_counter()
        kernel()
        done = time.perf_counter()
        fd = os.open(spool, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, _RECORD.pack(start, end, done))
        finally:
            os.close(fd)
        return result

    trials = Trials()
    sfi.run_planned_trial = run_planned_trial
    try:
        yield trials
    finally:
        sfi.run_planned_trial = original
        if os.path.exists(spool):
            with open(spool, "rb") as handle:
                for start, end, done in _RECORD.iter_unpack(handle.read()):
                    trials.laps.append((start, end, end - start))
                    trials.runs.append((done, done - end))
            os.remove(spool)
