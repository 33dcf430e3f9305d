"""In-memory spans for the traced benchmark run.

A span is (id, name, start, end, parent, op).  Names are
"<layer>.<call>", where the layer is a tourprof module (core, profiles,
search, rng, flags, cli) or "bench" for the harness's own spans.  Spans
are recorded only around calls into a layer that the benchmark makes or
that it reaches by rebinding a module-level name; nothing inside the
program is instrumented.

Times come from time.perf_counter, which on Linux reads CLOCK_MONOTONIC,
a clock shared by all processes of the machine; that is what lets a
child interpreter hand its spans back to the parent unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time

LAYERS = ("cli", "core", "profiles", "search", "rng", "flags")


class Recorder:
    """Collects spans in memory; thread safe for concurrent recording.

    A span opened in a thread with no open span of its own (a pool worker)
    takes the innermost open span of the main thread as its parent."""

    def __init__(self, first_id: int = 1):
        self.spans = []
        self.op = None
        self._ids = itertools.count(first_id)
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _record(self, sid, name, start, end, parent, extra) -> None:
        rec = {"id": sid, "name": name, "start": start, "end": end,
               "parent": parent, "op": self.op}
        rec.update(extra)
        with self._lock:
            self.spans.append(rec)

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(self, name: str, start: float, end: float, **extra) -> int:
        """Record an interval measured elsewhere (the child's import)."""
        sid = self._next_id()
        self._record(sid, name, start, end, None, extra)
        return sid

    @contextlib.contextmanager
    def span(self, name: str, **extra):
        """Record the enclosed block as a span; yields its id."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = (stack or self._stacks.get(self._main) or [None])[-1]
        sid = self._next_id()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(sid, name, start, end, parent, extra)

    def wrap(self, fn, name: str, tag=None):
        """fn with a span around each call; tag(args, kwargs) may return
        extra fields for the span, such as the tournament's n."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(tag(args, kwargs) if tag else {})):
                return fn(*args, **kwargs)
        return traced


def install(rec: Recorder, targets) -> list:
    """Rebind module attributes to traced wrappers.  Each target is
    (module, attr, span name) with an optional fourth item, the tag
    function for Recorder.wrap; returns what restore() needs."""
    saved = []
    for module, attr, name, *tag in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, rec.wrap(original, name, *tag))
    return saved


def restore(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that child spans cover
    (children of one span may overlap when they ran on pool threads)."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        kids = [(max(k["start"], sp["start"]), min(k["end"], sp["end"]))
                for k in children.get(sp["id"], ())]
        kids = [(s, e) for s, e in kids if e > s]
        out[sp["id"]] = (sp["end"] - sp["start"]) - _covered(kids)
    return out


def layer_self_times(spans) -> dict:
    """Sum of self time per tourprof layer over the given spans."""
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for sp in spans:
        layer = sp["name"].split(".", 1)[0]
        if layer in totals:
            totals[layer] += own[sp["id"]]
    return totals
