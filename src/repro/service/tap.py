"""Event tap: the FM's observability stream, forwarded to the feed.

The FM already narrates its life through the tracer protocol
(:class:`~repro.obs.span.SpanTracer`): PI-5 arrivals become instants,
discovery runs / assimilation bursts / route distribution become spans
on the ``"fm"`` track.  :class:`EventTap` speaks that protocol, so
attaching it is exactly as non-perturbing as tracing (no events
scheduled, no randomness consumed), and forwards the feed-worthy subset
to a sink callback as JSON-ready documents:

* ``{"event": "pi5", ...}`` — every PI-5 notification (and local port
  event) the FM processes;
* ``{"event": "span", ...}`` — summaries of completed FM-track spans:
  discovery runs, partial-assimilation and repair bursts, route
  distribution.

It keeps only what it forwards, and only until it forwards it: a span
off the FM track (per-claim discovery spans, PI-4 transactions) is
never opened — ``begin`` returns ``None``, which instrumented code
treats as untraced — and an FM-track span or a PI-5 instant is handed
to the sink, not stored.  A long-running daemon's tap holds nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.span import Span

#: Spans on these tracks are forwarded as feed summaries.
FEED_TRACKS = frozenset({"fm"})


class EventTap:
    """A tracer that forwards FM activity to ``sink``.

    ``sink`` receives one JSON-ready dict per feed event and must be
    cheap and non-raising (the server wraps a thread-safe queue
    handoff).  With ``sink=None`` the tap forwards nothing.
    """

    def __init__(self, sink: Optional[Callable[[dict], None]] = None):
        self.sink = sink
        #: Forwarded feed events, by kind (service metrics).
        self.forwarded = {"pi5": 0, "span": 0}

    # -- tracer protocol -----------------------------------------------------
    def begin(self, name: str, cat: str, t: float, *,
              parent: Optional[Span] = None, track: str = "fm",
              **args: Any) -> Optional[Span]:
        # Off the forwarded tracks: untraced.
        return (Span(0, name, cat, t, None, track, args, 0)
                if track in FEED_TRACKS else None)

    def end(self, span: Span, t: float, **args: Any) -> None:
        if span.end is not None:
            return
        span.end = t
        span.args.update(args)
        if self.sink is not None:
            self.forwarded["span"] += 1
            self.sink({"event": "span", "name": span.name, "kind": span.cat,
                       "sim_time": t, "start": span.start,
                       "duration": t - span.start, "args": dict(span.args)})

    def instant(self, name: str, cat: str, t: float, *,
                parent: Optional[Span] = None, track: str = "fm",
                **args: Any) -> None:
        if cat == "pi5" and self.sink is not None:
            self.forwarded["pi5"] += 1
            self.sink({"event": "pi5", "sim_time": t, **args})
