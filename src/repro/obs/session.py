"""One-stop trace session: spans + packet hops + metrics for one run.

:class:`TraceSession` bundles the three recorders and knows how to
install them on a built simulation (``build_simulation(...,
tracer=session)`` does this automatically) and how to finalize them
when the run ends.  It is the object the exporters consume.
"""

from __future__ import annotations

from typing import Optional

from ..fabric.trace import DEFAULT_LIMIT, PacketTracer
from .metrics import MetricsRegistry
from .span import SpanTracer


class TraceSession:
    """Recording context for one simulation run.

    Parameters
    ----------
    packets:
        Capture per-hop packet lifecycle events (costs one hook call
        per hop while enabled; spans alone are much cheaper).
    packet_limit:
        Capture capacity for packet hops; the oldest fall off beyond
        it and are counted, not silently dropped.
    """

    def __init__(self, packets: bool = True,
                 packet_limit: int = DEFAULT_LIMIT):
        self.spans = SpanTracer()
        self.packets: Optional[PacketTracer] = (
            PacketTracer(limit=packet_limit) if packets else None
        )
        self.metrics = MetricsRegistry()
        #: Free-form run description carried into exporter output
        #: (topology name, algorithm, seed, ...).
        self.meta: dict = {}
        self._finalized = False

    def install(self, setup) -> "TraceSession":
        """Attach to a built simulation (idempotent)."""
        setup.fm.attach_tracer(self.spans)
        if self.packets is not None:
            self.packets.attach(setup.fabric)
        self.meta.setdefault("topology", setup.spec.name)
        self.meta.setdefault("algorithm", setup.fm.algorithm_key)
        return self

    def finalize(self, setup) -> "TraceSession":
        """Close dangling spans and snapshot end-of-run metrics."""
        if self._finalized:
            return self
        self._finalized = True
        self.meta["unfinished_spans"] = self.spans.finish(setup.env.now)
        self.metrics.scrape_setup(setup)
        return self
