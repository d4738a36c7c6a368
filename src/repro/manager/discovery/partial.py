"""Partial assimilation: a burst is a propagation-order walk.

"Another possibility is to explore only the portion of the network
affected by the change [2], instead of the entire fabric" (section 5;
reference [2] is the authors' InfiniBand subnet-discovery study).  A
partial FM (``FabricManager(assimilation="partial")``) keeps the
database across changes.  Its initial discovery runs the configured
full algorithm; on a later PI-5 event it runs a *burst*, which for each
reported port:

1. confirms the port's state with a single PI-4 read of that port's
   status block;
2. on a *down* transition, removes the link, prunes any region that
   became unreachable, and recomputes the routes of surviving devices
   (their discovered paths may have crossed the removed region) — no
   further packets but one liveness probe of the far device;
3. on an *up* transition, runs a propagation-order exploration rooted
   at the reported port only, merging new devices into the database.

A burst of events (every neighbour of a hot-removed switch reports its
own port) is processed sequentially and accounted as *one* assimilation
in the FM history (algorithm ``"partial"``), so its cost is directly
comparable to one full rediscovery; its packets cost the FM what
Parallel's do.  Events naming unknown reporters, and bursts whose
reporter has vanished, fall back to a full rediscovery.  The same
machinery repairs suspect subtrees
(:meth:`~repro.manager.fm.FabricManager._attempt_repair`).

:class:`PartialAssimilation` is the discovery walk on Parallel's
:data:`~repro.manager.discovery.base.PACING` row with an event queue
in front of it (kept apart from the walk's backlog): each up-event's
exploration runs on the burst itself, sharing its stats, span, window
and suspect roots.  The FM keeps the policy — what a finished burst
leads to, and the fall-back to a full rediscovery — and hands both to
the burst as callbacks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from ...capability import decode_port_status, port_block_offset
from ...protocols import pi4, pi5
from ...routing.paths import PathError, db_route
from ..database import DatabaseError
from ..timing import PARTIAL
from .base import DiscoveryAlgorithm, Target


class PartialAssimilation(DiscoveryAlgorithm):
    """One burst: confirm and assimilate queued PI-5 events in order."""

    def __init__(self, fm, events: Iterable[pi5.PortEvent],
                 finished: Callable[[], None],
                 fall_back: Callable[[], None]):
        super().__init__(fm, PARTIAL)
        self._queue = deque(events)
        #: ``(reporter_dsn, port)`` pairs confirmed (or queued) in this
        #: burst, synthesized repair events included.
        self._seen = {(e.reporter_dsn, e.port) for e in self._queue}
        self._finished = finished
        self._fall_back = fall_back
        #: Whether an up-event's region exploration is in flight.
        self.exploring = False

    @property
    def span_name(self) -> str:
        trigger = self.stats.trigger
        name = "assimilation" if trigger == "change" else trigger
        return f"{name}:{PARTIAL}"

    def start(self, trigger: str) -> None:
        self._open(trigger)
        self._next()

    def abort(self) -> None:
        self._close(aborted_to_full=True)

    def add(self, event: pi5.PortEvent) -> None:
        """Queue an event that arrived mid-burst — even from a reporter
        the database does not (yet) know: the exploration in flight may
        discover it, and if not it is safely skippable (any reachable
        change is also reported by a known boundary device, and an
        unreachable one is invisible to the FM regardless)."""
        key = (event.reporter_dsn, event.port)
        if key in self._seen:
            self.fm.counters.incr("events_stale")
            return
        self._seen.add(key)
        self._queue.append(event)

    def _give_up(self) -> None:
        self.fm.counters.incr("partial_fallbacks")
        self._fall_back()

    # -- the event queue -----------------------------------------------------
    def _next(self) -> None:
        if self.done:
            return  # abandoned while the hop to here was on the heap
        queue = self._queue
        while queue and queue[0].reporter_dsn not in self.db:
            # The reporter itself was pruned by an earlier step of this
            # burst; nothing left to confirm there.
            queue.popleft()
        if not queue:
            self._conclude()
            self._finished()
            return
        event = queue.popleft()
        record = self.db.device(event.reporter_dsn)
        # Step 1: confirm the reported port state with one read.
        message = pi4.ReadRequest(
            cap_id=0, offset=port_block_offset(event.port), tag=0, count=1,
        )
        out = record.out_port if record.ingress_port is not None else None
        self.fm.send_request(
            message, record.route(), out,
            callback=self._on_confirm, ctx=(event, record),
            span_parent=self.span,
        )

    def _on_confirm(self, completion, ctx) -> None:
        event, record = ctx
        if not isinstance(completion, pi4.ReadCompletion):
            # The reporter itself is unreachable: the change is bigger
            # than the event suggests.  Full rediscovery.
            self._give_up()
        elif decode_port_status(completion.data[0])["up"]:
            self._assimilate_up(event, record)
        else:
            self._assimilate_down(event, record)

    # -- a port went down ----------------------------------------------------
    def _assimilate_down(self, event: pi5.PortEvent, record) -> None:
        port = record.ports.get(event.port)
        suspect = port.neighbor_dsn if port is not None else None
        self.db.mark_port_down(record.dsn, event.port)

        # A down port could be a single link failure (the far device is
        # still alive) or the visible edge of a device removal whose
        # other PI-5 events were lost (their event routes may cross the
        # failed region).  Distinguish with one liveness probe of the
        # far device over an alternate route — the affected-region
        # strategy of the paper's reference [2].
        if suspect is not None and suspect in self.db:
            try:
                pool, out_port = db_route(
                    self.db, self.fm.endpoint.dsn, suspect)
            except PathError:
                # No alternate route: the suspect region hangs off the
                # failed link and pruning below removes it.
                pool = None
            if pool is not None:
                probe = pi4.ReadRequest(cap_id=0, offset=0, tag=0, count=1)
                self.fm.send_request(
                    probe, pool, out_port,
                    callback=self._on_liveness_probe, ctx=suspect,
                    retries=0, span_parent=self.span,
                )
                return  # continue in the probe callback

        self._settle_down()

    def _on_liveness_probe(self, completion, suspect: int) -> None:
        if completion is None and suspect in self.db:
            # The device is gone: take all its links down so pruning
            # removes its region in one step.
            for index, far_port in list(self.db.device(suspect).ports.items()):
                if far_port.up:
                    self.db.mark_port_down(suspect, index)
        self._settle_down()

    def _settle_down(self) -> None:
        fm_dsn = self.fm.endpoint.dsn
        self.db.prune_unreachable(fm_dsn)
        try:
            self.db.recompute_routes(fm_dsn, incremental=True)
        except DatabaseError:
            self._give_up()
            return
        self._next()

    # -- a port came up ------------------------------------------------------
    def _assimilate_up(self, event: pi5.PortEvent, record) -> None:
        if event.port == record.ingress_port:
            # The reported port is the one the FM's own route enters
            # the reporter through — the confirm read just traversed
            # it, so the link is alive and its far side is the already
            # known path parent (a restored-link flap).  Re-record the
            # link; exploring "through" it would be a U-turn.
            port = record.port(event.port)
            port.up = True
            self.db.touch(record.dsn)
            if port.neighbor_dsn is not None and port.neighbor_dsn in self.db:
                self.db.add_link(record.dsn, event.port, port.neighbor_dsn,
                                 port.neighbor_port)
            self._next()
            return
        try:
            hops, out_port = self.db.extend_route(record, event.port)
        except DatabaseError:
            self._give_up()
            return
        # A propagation-order exploration rooted at the reported port:
        # the Parallel walk's own machinery, on this burst's stats, span
        # and suspect roots.
        self.exploring = True
        self._send_general(Target(hops=hops, out_port=out_port,
                                  via_dsn=record.dsn, via_port=event.port))
        self._maybe_finish()  # the target may have been out of reach

    def _maybe_finish(self) -> None:
        """Send what the backlog's limits allow; once the region is
        explored, go on to the next event one event hop later (a
        zero-delay timer), not at once: whatever else is due at this
        instant runs first, an order the pinned runs hold."""
        self._drain()
        if self.exploring and self._outstanding == 0 \
                and not self._backlog:
            self.exploring = False
            self.env.call_later(0, self._next)
