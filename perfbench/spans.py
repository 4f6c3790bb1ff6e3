"""Wall-clock spans around the calls into each layer, recorded from outside.

The program under test is not modified.  :class:`SpanRecorder` patches the
public entry points listed in :data:`TARGETS` with timing wrappers while a
traced phase runs and restores them afterwards.  Each span carries a name,
start, end, parent span and request id.  Spans are kept in memory and
written out as a Chrome-trace file when the run ends.

Pool workers are forked from the benchmark process and inherit the
wrappers.  A span that ends in a worker cannot reach the parent's span
list, so the worker folds it into its metrics registry instead
(``bench.span.<name>.total_s`` / ``.self_s`` / ``.calls``), which the
batch engine already snapshots and merges back into the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Optional

from repro.obs import get_metrics

#: Layer a span belongs to, by the first component of its name.
LAYER_OF = {
    "bench": "bench",
    "profiler": "core.profiler",
    "microbench": "core.microbench",
    "memmodel": "core.memmodel",
    "prophet": "core.prophet",
    "columnar": "core.columnar",
    "ff": "core.ffemu",
    "syn": "core.synthesizer",
    "executor": "core.executor",
    "dram": "simhw.dram",
    "batch": "core.batch",
    "serve": "serve",
}

#: Every layer, in report order.
LAYERS = list(dict.fromkeys(LAYER_OF.values()))


def _replay_name(args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    return "executor.replay." + (mode.value if mode is not None else "real")


def _profiled_nodes(profile) -> float:
    return float(profile.tree.logical_nodes())


#: (module, attribute path, span name or namer(args, kwargs)[, count of the
#: result]).  A module global is patched where its caller looks it up: the
#: facade reaches the calibration microbenchmark through
#: ``repro.core.prophet``'s namespace.
TARGETS: list[tuple] = [
    ("repro.core.profiler", "IntervalProfiler.profile", "profiler.profile", _profiled_nodes),
    ("repro.core.prophet", "calibrate_memory_model", "microbench.calibrate"),
    ("repro.core.memmodel", "MemoryModel.attach", "memmodel.attach"),
    ("repro.core.prophet", "ParallelProphet.predict", "prophet.predict"),
    ("repro.core.columnar", "ColumnarEngine.ff_point", "columnar.ff_point"),
    ("repro.core.columnar", "ColumnarEngine.syn_point", "columnar.syn_point"),
    ("repro.core.columnar", "ColumnarEngine.real_point", "columnar.real_point"),
    ("repro.core.ffemu", "FastForwardEmulator.emulate_profile", "ff.emulate"),
    ("repro.core.synthesizer", "Synthesizer.predict", "syn.predict"),
    ("repro.core.executor", "ParallelExecutor.execute_profile", _replay_name),
    ("repro.simhw.dram", "DramModel.stall_multiplier", "dram.solve"),
    ("repro.simhw.dram", "DramModel.solve_batch", "dram.solve_batch"),
    ("repro.core.batch", "BatchPredictor.run", "batch.run"),
]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "tid", "child_s", "count")

    def __init__(self, sid, name, start, parent, rid, tid) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.rid = rid
        self.tid = tid
        #: Summed duration of child spans (they never overlap each other:
        #: a child runs inside its parent's call, or inside a job the
        #: parent waits for).
        self.child_s = 0.0
        #: Work the call did, where its target counts it (nodes profiled).
        self.count = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.dur - self.child_s)


class SpanRecorder:
    """In-memory span store plus the patch/unpatch of :data:`TARGETS`."""

    #: Per-name aggregates reported by :meth:`totals`.
    FIELDS = ("calls", "total_s", "self_s", "count")

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patched: list[tuple[Any, str, Any]] = []
        #: Open client-side root spans by request id (see :meth:`request`).
        self._open: dict[Any, Span] = {}

    # ---------------------------------------------------------- span stack

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, rid=None, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if rid is None and parent is not None:
            rid = parent.rid
        with self._lock:
            self._next += 1
            sid = self._next
        span = Span(sid, name, time.perf_counter(), parent, rid, threading.get_ident())
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        parent = span.parent
        if parent is not None:
            if parent.tid == span.tid:
                parent.child_s += span.dur
            else:
                with self._lock:
                    parent.child_s += span.dur
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            m = get_metrics()
            m.inc(f"bench.span.{span.name}.total_s", span.dur)
            m.inc(f"bench.span.{span.name}.self_s", span.self_s)
            m.inc(f"bench.span.{span.name}.calls")
            m.inc(f"bench.span.{span.name}.count", span.count)

    def wrap(self, fn: Callable, name, counter: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.count = counter(result)
                return result
            finally:
                recorder.finish(span)

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every target, plus the serve queue hand-off."""
        for module_name, path, name, *counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, *counter))
        self._install_serve_links()

    def _install_serve_links(self) -> None:
        """Carry request ids and parent spans across the serve threads.

        The client puts its request id in the payload (the daemon ignores
        unknown fields); ``ServeState.handle`` runs on the HTTP thread and
        the queued job on a worker thread, so both links are made here."""
        from repro.serve.handlers import ServeState
        from repro.serve.workqueue import WorkQueue

        recorder = self
        handle = ServeState.__dict__["handle"]
        self._patched.append((ServeState, "handle", handle))

        @functools.wraps(handle)
        def linked_handle(state, method, path, payload):
            rid = payload.get("bench_rid") if isinstance(payload, dict) else None
            parent = recorder.open_request(rid)
            span = recorder.begin("serve.handle", rid=rid, parent=parent)
            try:
                return handle(state, method, path, payload)
            finally:
                recorder.finish(span)

        ServeState.handle = linked_handle
        submit = WorkQueue.__dict__["submit"]
        self._patched.append((WorkQueue, "submit", submit))

        @functools.wraps(submit)
        def linked_submit(queue, fn, *args, **kwargs):
            parent = recorder.current()

            def job():
                span = recorder.begin("serve.job", parent=parent)
                try:
                    return fn()
                finally:
                    recorder.finish(span)

            return submit(queue, job, *args, **kwargs)

        WorkQueue.submit = linked_submit

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------- request correlation

    def open_request(self, rid) -> Optional[Span]:
        """The client-side root span of request ``rid``, if still open."""
        if rid is None:
            return None
        with self._lock:
            return self._open.get(rid)

    def request(self, name: str, rid) -> Span:
        """Begin a root span for request ``rid`` that other threads can find."""
        span = self.begin(name, rid=rid, parent=None)
        with self._lock:
            self._open[rid] = span
        return span

    def end_request(self, span: Span) -> None:
        with self._lock:
            self._open.pop(span.rid, None)
        self.finish(span)

    # ----------------------------------------------------------- reporting

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds.

        Includes the spans folded into the metrics registry by pool
        workers during the current phase."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, dict.fromkeys(self.FIELDS, 0.0))
            row["calls"] += 1
            row["total_s"] += span.dur
            row["self_s"] += span.self_s
            row["count"] += span.count
        for key, value in get_metrics().counters(prefix="bench.span.").items():
            name, field = key[len("bench.span."):].rsplit(".", 1)
            row = out.setdefault(name, dict.fromkeys(self.FIELDS, 0.0))
            row[field] += value
        return out

    def write_chrome_trace(self, path: str) -> None:
        """All recorded spans as Chrome-trace JSON (open in Perfetto)."""
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.dur * 1e6,
                "pid": self.pid,
                "tid": s.tid,
                "args": {
                    "id": s.sid,
                    "parent": s.parent.sid if s.parent is not None else None,
                    "rid": s.rid,
                },
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def layer_self_times(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer (span self times summed by name prefix)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in totals.items():
        out[LAYER_OF[name.split(".", 1)[0]]] += row["self_s"]
    return out
