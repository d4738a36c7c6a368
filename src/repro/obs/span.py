"""Span recording: nested, timestamped intervals of simulator work.

A span is one interval of logical work — a PI-4 transaction waiting
for its completion, one device claim of a discovery walk, a whole
discovery run, a route-distribution pass.  Spans nest by parent id,
forming a tree per run, and live on named *tracks* (the Chrome-trace
"thread" a viewer draws them on).

Design constraints, in order:

1. **Determinism** — recording must never schedule simulation events
   or consume randomness.  Ids come from a plain counter; timestamps
   are the caller's ``env.now``.  Enabling tracing therefore leaves
   every simulation result bit-identical.
2. **Zero overhead when disabled** — instrumented code holds a tracer
   reference that is ``None`` by default and pays exactly one ``is not
   None`` test per potential span.
3. **Stable output** — spans carry a global sequence number assigned
   at record time, so exporters can emit events in the exact causal
   order of the run (byte-stable across repeated runs).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Tracks whose spans are strictly sequential (drawn as complete "X"
#: events; anything else is exported as async begin/end pairs because
#: its spans may overlap).
SERIAL_TRACKS = ("fm",)


class Span:
    """One recorded interval.  ``end`` is ``None`` while open."""

    __slots__ = ("sid", "name", "cat", "start", "end", "parent",
                 "track", "args", "seq_begin", "seq_end")

    def __init__(self, sid: int, name: str, cat: str, start: float,
                 parent: Optional[int], track: str,
                 args: Dict[str, Any], seq_begin: int):
        self.sid = sid
        self.name = name
        self.cat = cat
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.track = track
        self.args = args
        self.seq_begin = seq_begin
        self.seq_end: Optional[int] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} (#{self.sid}) is open")
        return self.end - self.start


class Instant:
    """A zero-duration marker (a retry, a PI-5 event arrival)."""

    __slots__ = ("name", "cat", "time", "parent", "track", "args", "seq")

    def __init__(self, name: str, cat: str, time: float,
                 parent: Optional[int], track: str,
                 args: Dict[str, Any], seq: int):
        self.name = name
        self.cat = cat
        self.time = time
        self.parent = parent
        self.track = track
        self.args = args
        self.seq = seq


class SpanTracer:
    """Collects spans and instants for one simulation run.

    The tracer is purely passive: ``begin``/``end``/``instant`` append
    to in-memory lists and return.  It holds no reference to the
    environment and cannot perturb a run.

    This is also the protocol instrumented code speaks to any tracer,
    and another tracer may record less: ``begin`` may return ``None``
    (that span is untraced — callers test the handle before ``end``
    and pass it on as a ``parent`` as is), and nobody uses what
    ``instant`` returns.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._open: Dict[int, Span] = {}
        self._next_sid = 1
        self._next_seq = 0

    # -- recording ----------------------------------------------------------
    def begin(self, name: str, cat: str, t: float, *,
              parent: Optional[Span] = None, track: str = "fm",
              **args: Any) -> Span:
        """Open a span at sim time ``t``; returns the handle to close."""
        span = Span(
            sid=self._next_sid, name=name, cat=cat, start=t,
            parent=None if parent is None else parent.sid,
            track=track, args=args, seq_begin=self._next_seq,
        )
        self._next_sid += 1
        self._next_seq += 1
        self.spans.append(span)
        self._open[span.sid] = span
        return span

    def end(self, span: Span, t: float, **args: Any) -> None:
        """Close ``span`` at sim time ``t`` (no-op if already closed)."""
        if span.end is not None:
            return
        span.end = t
        span.seq_end = self._next_seq
        self._next_seq += 1
        if args:
            span.args.update(args)
        self._open.pop(span.sid, None)

    def instant(self, name: str, cat: str, t: float, *,
                parent: Optional[Span] = None, track: str = "fm",
                **args: Any) -> Instant:
        """Record a zero-duration marker at sim time ``t``."""
        event = Instant(
            name=name, cat=cat, time=t,
            parent=None if parent is None else parent.sid,
            track=track, args=args, seq=self._next_seq,
        )
        self._next_seq += 1
        self.instants.append(event)
        return event

    def finish(self, t: float) -> int:
        """Close any still-open spans at ``t`` (marked ``unfinished``).

        Returns how many spans had to be force-closed; a clean run
        closes every span itself and this returns 0.
        """
        dangling = sorted(self._open.values(), key=lambda s: s.sid)
        for span in dangling:
            self.end(span, t, unfinished=True)
        return len(dangling)

    # -- queries ------------------------------------------------------------
    @property
    def open_count(self) -> int:
        return len(self._open)

    def by_id(self) -> Dict[int, Span]:
        return {span.sid: span for span in self.spans}

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def find(self, name: Optional[str] = None,
             cat: Optional[str] = None) -> List[Span]:
        """Spans matching a name and/or category, in record order."""
        return [
            s for s in self.spans
            if (name is None or s.name == name)
            and (cat is None or s.cat == cat)
        ]

    def validate(self, serial_tracks=SERIAL_TRACKS,
                 tolerance: float = 1e-12) -> List[str]:
        """Structural well-formedness check; returns problem strings.

        * every parent id resolves to a recorded span (no orphans);
        * every span is closed with ``end >= start``;
        * children lie within their parent's interval;
        * spans on a *serial* track never overlap each other.
        """
        problems: List[str] = []
        index = self.by_id()
        for span in self.spans:
            label = f"span #{span.sid} {span.name!r}"
            if span.end is None:
                problems.append(f"{label}: never closed")
                continue
            if span.end < span.start - tolerance:
                problems.append(
                    f"{label}: negative duration "
                    f"({span.start} -> {span.end})"
                )
            if span.parent is not None:
                parent = index.get(span.parent)
                if parent is None:
                    problems.append(
                        f"{label}: orphan (parent #{span.parent} "
                        f"not recorded)"
                    )
                elif parent.end is not None and (
                    span.start < parent.start - tolerance
                    or span.end > parent.end + tolerance
                ):
                    problems.append(
                        f"{label}: outside parent #{parent.sid} "
                        f"{parent.name!r} interval"
                    )
        for event in self.instants:
            if event.parent is not None and event.parent not in index:
                problems.append(
                    f"instant {event.name!r}: orphan "
                    f"(parent #{event.parent} not recorded)"
                )
        for track in serial_tracks:
            laned = sorted(
                (s for s in self.spans
                 if s.track == track and s.end is not None),
                key=lambda s: (s.start, s.sid),
            )
            for earlier, later in zip(laned, laned[1:]):
                if later.start < earlier.end - tolerance:
                    problems.append(
                        f"serial track {track!r}: span "
                        f"#{later.sid} {later.name!r} overlaps "
                        f"#{earlier.sid} {earlier.name!r}"
                    )
        return problems

    def __len__(self) -> int:
        return len(self.spans)
