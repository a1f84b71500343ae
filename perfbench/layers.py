"""Per-layer metrics of a traced run, derived from its spans and exact counters.

Counts come from the layers' own counters where they exist (the engine's
``cache_info()`` deltas over the timed phase, the batcher's ``metrics=``
hooks); times and quantiles come from the spans.  Every metric is emitted on
every workload so the output has one shape; a layer a workload does not
touch reads 0 (see README.md for which layer each workload loads).
"""

from __future__ import annotations

from spans import LAYERS
from workloads import LiveStream, StreamCold, quantile


def _layer_names(layer: str) -> list[str]:
    return [name for name, owner in LAYERS.items() if owner == layer]


def per_layer(workload) -> dict[str, tuple[float, str]]:
    recorder = workload.recorder
    summary = recorder.summary()

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def busy(layer: str) -> float:
        return sum(stat(name, "busy_ms") for name in _layer_names(layer))

    before, after = workload.cache_before, workload.cache_after
    gets = (after.hits + after.misses) - (before.hits + before.misses)
    hits = after.hits - before.hits
    featurize_calls = stat("featurize", "count")
    gc_spans = [row for row in recorder.rows() if row[1] == "gc"]
    gc_pauses = [(end - start) * 1e3 for _, _, start, end, *_ in gc_spans]
    self_ms = sum(entry["self_ms"] for name, entry in summary.items() if name in LAYERS)

    metrics = {
        "engine.calls": (stat("engine", "count"), "count"),
        "engine.busy_ms": (busy("engine"), "ms"),
        "engine.self_ms": (stat("engine", "self_ms"), "ms"),
        "store.gets": (gets, "count"),
        "store.hit_ratio": (hits / gets if gets else 0.0, "ratio"),
        "store.cold_hits": (after.cold_hits - before.cold_hits, "count"),
        "store.promotions": (after.promotions - before.promotions, "count"),
        "store.demotions": (after.demotions - before.demotions, "count"),
        "store.puts": (stat("store.put", "count"), "count"),
        "store.invalidated": (after.invalidated - before.invalidated, "count"),
        "store.busy_ms": (busy("store"), "ms"),
        "featurize.calls": (featurize_calls, "count"),
        "featurize.rows": (stat("featurize", "amount"), "count"),
        "featurize.rows_per_call": (
            stat("featurize", "amount") / featurize_calls if featurize_calls else 0.0,
            "rows/call",
        ),
        "featurize.busy_ms": (busy("featurize"), "ms"),
        "featurize.self_ms": (stat("featurize", "self_ms"), "ms"),
        "content.rows": (stat("content", "amount"), "count"),
        "content.busy_ms": (busy("content"), "ms"),
        "history.rows": (stat("history.batch", "amount") + stat("history.delta", "amount"), "count"),
        "history.busy_ms": (busy("history"), "ms"),
        "score.calls": (stat("score", "count"), "count"),
        "score.pairs": (stat("score", "amount"), "count"),
        "score.busy_ms": (busy("score"), "ms"),
        "stream.consume_ms": (busy("stream.consume"), "ms"),
        "stream.window_ms": (busy("stream.window"), "ms"),
        "stream.self_ms": (stat("stream.process", "self_ms"), "ms"),
        "stream.pairs_per_tweet": (
            len(workload.probabilities) / len(workload.counts) if isinstance(workload, LiveStream) else 0.0,
            "pairs/tweet",
        ),
        "runtime.gc_gen2": (sum(1 for row in gc_spans if row[7] == 2), "count"),
        "runtime.gc_pause_ms": (sum(gc_pauses), "ms"),
        "runtime.gc_pause_max_ms": (max(gc_pauses, default=0.0), "ms"),
        "trace.self_share": (self_ms / (workload.wall_s() * 1e3), "ratio"),
    }
    metrics.update(_open_loop_layers(workload, summary))
    return metrics


def _open_loop_layers(workload, summary) -> dict[str, tuple[float, str]]:
    """Load generator and batcher metrics; zeros on the closed-loop workloads."""
    if not isinstance(workload, StreamCold):
        return {
            name: (0.0, unit)
            for name, unit in [
                ("loadgen.lag_p99_ms", "ms"),
                ("loadgen.wall_latency_p50_ms", "ms"),
                ("loadgen.wall_latency_p99_ms", "ms"),
                ("loadgen.sent", "count"),
                ("loadgen.failed", "count"),
                ("batcher.flushes", "count"),
                ("batcher.flush_requests_p50", "count"),
                ("batcher.flush_pairs_p50", "count"),
                ("batcher.queue_wait_p50_ms", "ms"),
                ("batcher.queue_wait_p99_ms", "ms"),
                ("batcher.rejected", "count"),
            ]
        }
    runs = workload.fixed_runs
    flushes = workload.metrics
    waits = summary.get("batcher.queue_wait", {}).get("durations_ms", [])
    return {
        "loadgen.lag_p99_ms": (quantile([lag for run in runs for lag in run["lag_ms"]], 99), "ms"),
        "loadgen.wall_latency_p50_ms": (quantile(workload.wall_latency_ms, 50), "ms"),
        "loadgen.wall_latency_p99_ms": (quantile(workload.wall_latency_ms, 99), "ms"),
        "loadgen.sent": (sum(len(run["lag_ms"]) for run in runs), "count"),
        "loadgen.failed": (sum(run["rejected"] + run["errors"] for run in runs), "count"),
        "batcher.flushes": (len(flushes.flush_requests), "count"),
        "batcher.flush_requests_p50": (quantile(flushes.flush_requests, 50), "count"),
        "batcher.flush_pairs_p50": (quantile(flushes.flush_pairs, 50), "count"),
        "batcher.queue_wait_p50_ms": (quantile(waits, 50), "ms"),
        "batcher.queue_wait_p99_ms": (quantile(waits, 99), "ms"),
        "batcher.rejected": (flushes.rejected, "count"),
    }
