"""Out-of-band spans around the public entry point of each layer.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces a handful of public functions with timing wrappers for the
length of the traced phase and puts the originals back afterwards.
Every alias of a function inside the ``repro`` package is patched, so
callers that imported it by name are reached too.  ``run_campaign``
and the pool workers look ``golden_run``/``run_planned_trial`` up
through :mod:`repro.runtime.sfi` at call time, and the workers are
forked, so the wrappers reach the workers as well.

A span records its name, pid, start, end, the enclosing span in the
same process, and its self time: its duration minus the time its child
spans cover.  Spans of the benchmark process stay in memory.  Forked
pool workers leave through ``os._exit``, so nothing they hold at exit
survives: a worker appends each span to its own JSONL spool file, and
flushes it, the moment the span ends.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, defining module, attribute path) of every traced entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("pipeline.compile", "repro.encore.pipeline", "compile_for_encore"),
    ("sfi.golden", "repro.runtime.sfi", "golden_run"),
    ("sfi.plan", "repro.runtime.sfi", "plan_campaign"),
    ("sfi.trial", "repro.runtime.sfi", "run_planned_trial"),
    ("journal.record", "repro.runtime.journal", "CampaignJournal.record"),
    ("engine.decode", "repro.runtime.predecode", "DecodeCache.program_for"),
    ("memory.pristine", "repro.runtime.memory", "MachineMemory.pristine"),
)


def _pass_totals(stats) -> Dict[str, Tuple[float, int, int]]:
    if stats is None:
        return {}
    return {
        stat.name: (stat.seconds, stat.runs, stat.cache_hits)
        for stat in stats.passes
    }


class _CompileProbe:
    """Per-pass deltas from the ``stats=`` argument, plus the static
    instruction count of the instrumented module."""

    @staticmethod
    def before(args, kwargs):
        return _pass_totals(kwargs.get("stats"))

    @staticmethod
    def after(args, kwargs, result, before):
        passes = {}
        for name, (seconds, runs, hits) in _pass_totals(result.stats).items():
            base = before.get(name, (0.0, 0, 0))
            passes[name] = [seconds - base[0], runs - base[1], hits - base[2]]
        return {"passes": passes, "insts": result.module.instruction_count()}


class _GoldenProbe:
    @staticmethod
    def before(args, kwargs):
        return None

    @staticmethod
    def after(args, kwargs, result, before):
        return {"events": result.events}


class _DecodeProbe:
    """Which level of the decode cache served the call."""

    @staticmethod
    def before(args, kwargs):
        cache = args[0]
        return cache.decodes, cache.module_hits, cache.fingerprint_hits

    @staticmethod
    def after(args, kwargs, result, before):
        cache = args[0]
        if cache.decodes != before[0]:
            kind = "decode"
        elif cache.module_hits != before[1]:
            kind = "module_hit"
        else:
            kind = "fingerprint_hit"
        return {"kind": kind}


PROBES = {
    "pipeline.compile": _CompileProbe,
    "sfi.golden": _GoldenProbe,
    "engine.decode": _DecodeProbe,
}


class Tracer:
    """Spans of one traced phase, across the benchmark and its workers.

    ``counting`` tags the spans opened while it is set; the benchmark
    keeps it on for a fixed amount of work so that counts derived from
    spans repeat exactly for a given seed.
    """

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self.counting = True
        self._spans: List[Dict[str, Any]] = []
        self._pid = self.root_pid
        self._stack: List[list] = []
        self._spool = None
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _open(self) -> list:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: drop the parent's state.
            self._pid = pid
            self._stack = []
            self._spans = []
            self._spool = open(
                os.path.join(self.spool_dir, f"spans-{pid}.jsonl"),
                "a", encoding="utf-8",
            )
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # [id, parent, start, child seconds]
        frame = [self._next_id, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, attrs: Optional[dict]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        span = {
            "name": name, "pid": self._pid, "id": frame[0],
            "parent": frame[1], "start": frame[2], "end": end,
            "self": duration - frame[3], "count": self.counting,
        }
        if attrs:
            span.update(attrs)
        if self._spool is None:
            self._spans.append(span)
        else:
            self._spool.write(json.dumps(span) + "\n")
            self._spool.flush()

    def wrap(self, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = probe.before(args, kwargs) if probe else None
            frame = tracer._open()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if probe:
                    attrs = probe.after(args, kwargs, result, before)
                return result
            finally:
                tracer._close(name, frame, attrs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                self._patch(owner, attr, raw, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original)
            for alias in list(sys.modules.values()):
                if (getattr(alias, "__name__", "").startswith("repro")
                        and getattr(alias, path, None) is original):
                    self._patch(alias, path, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- collection -------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        """Every finished span: this process's, then each worker's."""
        collected = list(self._spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                collected.extend(json.loads(line) for line in handle if line.strip())
        return collected
