"""``repro.obs`` — metrics registry and request-scoped tracing.

The observability layer the three serving transports share.  Two halves:

* :mod:`repro.obs.registry` — thread-safe :class:`Counter` / :class:`Gauge` /
  fixed-bucket :class:`Histogram` metrics with labeled families, JSON
  snapshots that merge across processes, and a Prometheus-style text
  exposition.
* :mod:`repro.obs.trace` — per-request :class:`Trace`/:class:`Span` timing
  with one canonical stage taxonomy (:data:`STAGES`), an injectable clock,
  and a process-wide :class:`Tracer` that is **disabled by default** (the
  serving hot path pays one attribute read when off).

Typical use::

    from repro import obs

    with obs.tracing() as tracer:           # scoped enable, fresh registry
        response = engine.serve(request)    # responses now carry .trace
        print(response.trace["stages"])
        print(tracer.registry.to_text())
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    format_stage_table,
)
from repro.obs.trace import (
    EVENT_COLD_HIT,
    EVENT_DEMOTE,
    EVENT_HOT_HIT,
    EVENT_PROMOTE,
    STAGE_FEATURIZE,
    STAGE_GATHER,
    STAGE_METRIC,
    STAGE_QUEUE_WAIT,
    STAGE_SCORE,
    STAGE_WIRE_RTT,
    STAGE_WIRE_SERIALIZE,
    STAGES,
    STORE_EVENT_METRIC,
    STORE_EVENTS,
    Span,
    Trace,
    Tracer,
    configure,
    get_registry,
    get_tracer,
    tracing,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "format_stage_table",
    "EVENT_COLD_HIT",
    "EVENT_DEMOTE",
    "EVENT_HOT_HIT",
    "EVENT_PROMOTE",
    "STAGE_FEATURIZE",
    "STAGE_GATHER",
    "STAGE_METRIC",
    "STAGE_QUEUE_WAIT",
    "STAGE_SCORE",
    "STAGE_WIRE_RTT",
    "STAGE_WIRE_SERIALIZE",
    "STAGES",
    "STORE_EVENT_METRIC",
    "STORE_EVENTS",
    "Span",
    "Trace",
    "Tracer",
    "configure",
    "get_registry",
    "get_tracer",
    "tracing",
]
