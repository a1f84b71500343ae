"""In-memory span recording around the serving layers' public entry points.

The benchmark times each layer from its own files: a judge proxy handed to
the engine, a feature-store proxy passed as ``store=``, and wrappers set on
the benchmark's own instances (the engine's entry points, the featurizer's
history and content sub-layers, the stream scorer's builder and window).
Nothing in ``src/`` is modified and ``repro.obs`` tracing stays off.

Spans live in per-thread ``array`` columns (name, start, end, parent, request
id, amount), so recording allocates no garbage-collected objects and does
not itself feed the collector whose pauses the trace reports.  A span's
parent is the innermost open span on the same thread; a root span takes the
thread's current request id and children inherit it.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from array import array
from collections import defaultdict

from repro.cluster.metrics import ClusterMetrics

#: Span name -> layer.  Names outside this map (request-level waits) are
#: reported but are not layer work, so they are left out of self-time sums.
LAYERS = {
    "batcher.flush": "batcher",
    "engine": "engine",
    "store.get": "store",
    "store.put": "store",
    "store.invalidate": "store",
    "featurize": "featurize",
    "history.batch": "history",
    "history.delta": "history",
    "history.visit_rows": "history",
    "content": "content",
    "score": "score",
    "stream.process": "stream",
    "stream.consume": "stream.consume",
    "stream.window": "stream.window",
    "gc": "runtime",
}


class _ThreadLog:
    """Span columns of one thread plus its open-span stack."""

    def __init__(self, thread_no: int):
        self.thread_no = thread_no
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.amount = array("q")
        self.stack: list[int] = []
        self.current_rid = -1
        self.gc_start = 0.0

    def begin(self, name: int, amount: int) -> int:
        index = len(self.name)
        stack = self.stack
        parent = stack[-1] if stack else -1
        self.name.append(name)
        self.parent.append(parent)
        self.rid.append(self.rid[parent] if parent >= 0 else self.current_rid)
        self.amount.append(amount)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def closed(self, name: int, start: float, end: float, parent: int, rid: int, amount: int) -> int:
        """Append an already-finished span (measured elsewhere)."""
        index = len(self.name)
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.rid.append(rid)
        self.amount.append(amount)
        return index


class SpanRecorder:
    """Per-thread span logs plus the wrappers that fill them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._names: dict[str, int] = {}
        self.origin = time.perf_counter()

    # -------------------------------------------------------------- plumbing
    def name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def set_request(self, rid: int) -> None:
        """Request id for the next root spans on the calling thread."""
        self.log().current_rid = rid

    def reset(self) -> None:
        """Drop every recorded span (set-up traffic is not measured)."""
        self.origin = time.perf_counter()
        with self._lock:
            for log in self._logs:
                for column in (log.name, log.start, log.end, log.parent, log.rid, log.amount):
                    del column[:]

    # -------------------------------------------------------------- wrappers
    def wrap(self, name: str, fn, amount=None):
        """``fn`` (one positional argument) timed as span ``name``.

        ``amount(arg)`` gives the span's work count (rows, pairs).  The
        wrappers are fixed-arity so a call builds no argument tuple.
        """
        nid, log = self.name_id(name), self.log

        def wrapped(arg):
            thread_log = log()
            index = thread_log.begin(nid, amount(arg) if amount is not None else 0)
            try:
                return fn(arg)
            finally:
                thread_log.finish(index)

        return wrapped

    def wrap2(self, name: str, fn, amount=None):
        """Two-argument twin of :meth:`wrap` (``amount`` sees the first)."""
        nid, log = self.name_id(name), self.log

        def wrapped(first, second):
            thread_log = log()
            index = thread_log.begin(nid, amount(first) if amount is not None else 0)
            try:
                return fn(first, second)
            finally:
                thread_log.finish(index)

        return wrapped

    def wrap0(self, name: str, fn):
        """No-argument twin of :meth:`wrap`."""
        nid, log = self.name_id(name), self.log

        def wrapped():
            thread_log = log()
            index = thread_log.begin(nid, 0)
            try:
                return fn()
            finally:
                thread_log.finish(index)

        return wrapped

    # -------------------------------------------------------------------- gc
    def _on_gc(self, phase: str, info: dict) -> None:
        log = self.log()
        if phase == "start":
            log.gc_start = time.perf_counter()
            return
        end = time.perf_counter()
        parent = log.stack[-1] if log.stack else -1
        log.closed(
            self._gc_id,
            log.gc_start,
            end,
            parent,
            log.rid[parent] if parent >= 0 else log.current_rid,
            info["generation"],
        )

    def install_gc(self) -> None:
        self._gc_id = self.name_id("gc")
        gc.callbacks.append(self._on_gc)

    def remove_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # ---------------------------------------------------------------- output
    def rows(self):
        """Every span as ``(id, name, start, end, parent_id, thread, rid, amount)``."""
        names = {index: name for name, index in self._names.items()}
        offset = 0
        for log in self._logs:
            for i in range(len(log.name)):
                parent = log.parent[i]
                yield (
                    offset + i,
                    names[log.name[i]],
                    log.start[i],
                    log.end[i],
                    offset + parent if parent >= 0 else -1,
                    log.thread_no,
                    log.rid[i],
                    log.amount[i],
                )
            offset += len(log.name)

    def write(self, path) -> int:
        """Write spans as JSON lines (times in ms since :meth:`reset`); returns count."""
        origin = self.origin
        count = 0
        with open(path, "w") as handle:
            columns = ["id", "name", "start_ms", "end_ms", "parent", "thread", "rid", "amount"]
            handle.write(json.dumps({"columns": columns}) + "\n")
            for sid, name, start, end, parent, thread, rid, amount in self.rows():
                start_ms = round((start - origin) * 1e3, 4)
                end_ms = round((end - origin) * 1e3, 4)
                row = [sid, name, start_ms, end_ms, parent, thread, rid, amount]
                handle.write(json.dumps(row) + "\n")
                count += 1
        return count

    def summary(self) -> dict:
        """Per span name: count, amount, durations, busy and self time (ms).

        A span's self time is its duration minus its children's durations
        (children on one thread nest inside their parent).  ``busy`` counts a
        span only when its parent belongs to another layer, so a layer's
        nested calls are not counted twice.
        """
        spans = list(self.rows())
        children_ms: dict[int, float] = defaultdict(float)
        name_of = {}
        for sid, name, start, end, parent, *_ in spans:
            name_of[sid] = name
            if parent >= 0:
                children_ms[parent] += (end - start) * 1e3
        by_name: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "amount": 0, "busy_ms": 0.0, "self_ms": 0.0, "durations_ms": []}
        )
        for sid, name, start, end, parent, _thread, _rid, amount in spans:
            duration = (end - start) * 1e3
            entry = by_name[name]
            entry["count"] += 1
            entry["amount"] += amount
            entry["durations_ms"].append(duration)
            entry["self_ms"] += duration - children_ms[sid]
            parent_layer = LAYERS.get(name_of.get(parent, ""), None)
            if parent < 0 or parent_layer != LAYERS.get(name):
                entry["busy_ms"] += duration
        return dict(by_name)


# ------------------------------------------------------------------ layer probes
class TracedJudge:
    """Judge proxy handed to the engine: times featurization and pair scoring."""

    def __init__(self, judge, recorder: SpanRecorder):
        self._judge = judge
        self.featurize_profiles = recorder.wrap("featurize", judge.featurize_profiles, len)
        self.score_feature_pairs = recorder.wrap2("score", judge.score_feature_pairs, len)

    def __getattr__(self, name):
        return getattr(self._judge, name)


class TracedStore:
    """``FeatureStore`` proxy passed as ``store=``: times every store call."""

    def __init__(self, store, recorder: SpanRecorder):
        self._store = store
        self.capacity = store.capacity
        self.get = recorder.wrap("store.get", store.get)
        self.put = recorder.wrap2("store.put", store.put)
        self.invalidate = recorder.wrap("store.invalidate", store.invalidate)
        self.invalidate_stale = recorder.wrap0("store.invalidate", store.invalidate_stale)

    def __getattr__(self, name):
        return getattr(self._store, name)


def instrument_featurizer(featurizer, recorder: SpanRecorder) -> None:
    """Time the HisRect featurizer's history (Eq. 1-2) and content sub-layers."""
    history = featurizer.history_featurizer
    history.featurize_batch = recorder.wrap("history.batch", history.featurize_batch, len)
    history.delta_row = recorder.wrap2("history.delta", history.delta_row, lambda _state: 1)
    history.visit_rows = recorder.wrap("history.visit_rows", history.visit_rows)
    encoder = featurizer.content_encoder
    encoder.encode_batch = recorder.wrap("content", encoder.encode_batch, len)


def instrument_engine(engine, recorder: SpanRecorder) -> None:
    """Time the engine's public entry points (what a batcher flushes into)."""
    for method in ("predict_proba", "serve_batch", "probability_matrix"):
        setattr(engine, method, recorder.wrap("engine", getattr(engine, method), len))
    engine.invalidate_stale = recorder.wrap0("engine", engine.invalidate_stale)


def instrument_stream(scorer, recorder: SpanRecorder):
    """Time the stream scorer's builder and window; returns a timed ``process``."""
    scorer.builder.consume = recorder.wrap("stream.consume", scorer.builder.consume)
    scorer.window.add = recorder.wrap("stream.window", scorer.window.add)
    return recorder.wrap("stream.process", scorer.process)


class FlushRecorder(ClusterMetrics):
    """Batcher ``metrics=`` object that also records flush and queue-wait spans.

    ``observe_flush`` runs on the flusher thread right after a flush, so the
    flush span is ``[now - elapsed, now]`` and the spans that thread opened
    since the previous flush become its subtree, carrying the flush number as
    their request id.  The batcher then
    calls ``observe_latency`` once per request in queue order; with one
    submitting thread the queue is FIFO in request-id order, so the k-th
    latency of a flush belongs to the k-th request after the previous flush.
    A request's queue wait is its enqueue-to-result latency minus the flush.
    """

    def __init__(self, engine, recorder: SpanRecorder):
        super().__init__(engine)
        self._recorder = recorder
        self._flush_id = recorder.name_id("batcher.flush")
        self._wait_id = recorder.name_id("batcher.queue_wait")
        self.flush_requests = array("q")
        self.flush_pairs = array("q")
        self.rejected = 0
        self._first_child = 0
        self._next_request = 0
        self._batch_request = 0
        self._flush_end = 0.0
        self._flush_s = 0.0

    def reset(self) -> None:
        """Forget set-up flushes; request ids restart at 0."""
        del self.flush_requests[:]
        del self.flush_pairs[:]
        self.rejected = 0
        self._first_child = self._next_request = self._batch_request = 0

    def observe_flush(self, num_requests, num_pairs, queue_depth, elapsed_ms, num_serves=0):
        now = time.perf_counter()
        log = self._recorder.log()
        flushes = len(self.flush_requests)
        first_child = min(self._first_child, len(log.name))
        index = log.closed(self._flush_id, now - elapsed_ms / 1e3, now, -1, flushes, num_requests)
        for child in range(first_child, index):
            if log.name[child] != self._wait_id:
                log.rid[child] = flushes
                if log.parent[child] == -1:
                    log.parent[child] = index
        self.flush_requests.append(num_requests)
        self.flush_pairs.append(num_pairs)
        self._first_child = index + 1
        self._flush_end, self._flush_s = now, elapsed_ms / 1e3
        self._batch_request = self._next_request
        self._next_request += num_requests
        super().observe_flush(num_requests, num_pairs, queue_depth, elapsed_ms, num_serves)

    def observe_latency(self, latency_ms):
        log = self._recorder.log()
        start = self._flush_end - latency_ms / 1e3
        log.closed(self._wait_id, start, self._flush_end - self._flush_s, -1, self._batch_request, 0)
        self._batch_request += 1
        super().observe_latency(latency_ms)

    def observe_rejection(self):
        self.rejected += 1
        super().observe_rejection()
