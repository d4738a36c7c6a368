"""Structured observability: span tracing, packet lifecycle capture,
a metrics registry, and timeline exporters.

The paper's figures are all *time* measurements, but end totals alone
cannot show *where* a Serial Packet walk spends its time versus a
Parallel walk.  This package records that structure:

* :class:`~repro.obs.span.SpanTracer` — nested spans for every PI-4
  transaction, discovery phase (claim, port read, assimilation burst,
  repair) and route-distribution pass;
* :class:`~repro.fabric.trace.PacketTracer` (installed by the
  session) — per-hop packet lifecycle events
  (enqueue/tx/rx/drop/deliver) with sim timestamps;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms unifying the scattered stats counters of ports, entities,
  and the FM;
* :mod:`~repro.obs.export` — Chrome-trace (Perfetto-compatible) JSON
  and JSONL writers, plus a schema validator used by CI;
* :mod:`~repro.obs.breakdown` — per-phase discovery-time attribution
  (claim / port read / other) whose columns sum exactly to the
  reported discovery time.

Everything here is **zero-overhead when disabled**: instrumented hot
paths pay one ``is not None`` check and the tracer never schedules
simulation events or touches any RNG, so enabling it leaves discovery
times and stats digests bit-identical.
"""

from .. import _surface

__getattr__, __dir__, __all__ = _surface(globals(), {
    "Histogram": "metrics",
    "Instant": "span",
    "MetricsRegistry": "metrics",
    "Span": "span",
    "SpanTracer": "span",
    "TraceSession": "session",
    "chrome_trace_document": "export",
    "discovery_phase_breakdown": "breakdown",
    "discovery_spans": "breakdown",
    "dump_chrome_trace": "export",
    "validate_chrome_trace": "export",
    "write_chrome_trace": "export",
    "write_jsonl": "export",
})
