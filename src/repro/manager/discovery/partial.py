"""Partial (change-affected region) discovery — paper future work.

"Another possibility is to explore only the portion of the network
affected by the change [2], instead of the entire fabric" (section 5;
reference [2] is the authors' InfiniBand subnet-discovery study).

:class:`PartialAssimilationManager` keeps the database across changes.
On a PI-5 event it:

1. confirms the reported port's state with a single PI-4 read of that
   port's status block;
2. on a *down* transition, removes the link, prunes any region that
   became unreachable, and recomputes the routes of surviving devices
   (their discovered paths may have crossed the removed region) — no
   further packets;
3. on an *up* transition, runs a propagation-order exploration rooted
   at the reported port only, merging new devices into the database.

A burst of events (every neighbour of a hot-removed switch reports its
own port) is processed sequentially and accounted as *one* assimilation
in the FM history, so its cost is directly comparable to one full
rediscovery by the baseline algorithms.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ...capability import port_block_offset
from ...protocols import pi4, pi5
from ..database import DatabaseError
from ..fm import FabricManager
from .base import DiscoveryStats, Target
from .parallel import ParallelDiscovery

#: Algorithm label used in stats and the FM history.
PARTIAL = "partial"


class _RegionExploration(ParallelDiscovery):
    """Propagation-order exploration rooted inside an existing database."""

    key = PARTIAL

    def start_at(self, targets) -> None:
        """Begin at explicit targets instead of the FM endpoint."""
        if self.stats.started_at is None:
            # Aggregating into a burst's stats keeps the burst's own
            # trigger ("change" or "repair") and start time.
            self.stats.trigger = "change"
            self.stats.started_at = self.env.now
        if not targets:
            self.done = True
            self.stats.finished_at = self.env.now
            self.stats.devices_found = len(self.db)
            self.done_event.succeed(self.stats)
            return
        for target in targets:
            self._send_general(target)
        self._maybe_finish()  # every target may have been out of reach


class PartialAssimilationManager(FabricManager):
    """An FM that assimilates changes without full rediscovery.

    The *initial* discovery still runs the configured full algorithm;
    only subsequent PI-5 events take the partial path.  Events naming
    unknown reporters fall back to a full rediscovery (safety net).
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("algorithm", "parallel")
        super().__init__(*args, **kwargs)
        # Partial assimilation shares the Parallel implementation's
        # per-packet FM cost.
        self.cost_key = "parallel"
        self._event_queue: Deque[pi5.PortEvent] = deque()
        self._burst_stats: Optional[DiscoveryStats] = None
        #: Open observability span covering the current burst (tracing
        #: only; region explorations share it instead of opening their
        #: own discovery span).
        self._burst_span = None
        self._region: Optional[_RegionExploration] = None
        #: ``(reporter_dsn, port)`` pairs already confirmed (or queued)
        #: in the current burst — also covers the synthetic checks below.
        self._burst_seen: set = set()
        #: Suspect roots accumulated by this burst's region
        #: explorations (mid-walk failures inside a region re-read);
        #: fed to the bounded restart/repair policy when the burst
        #: finishes.
        self._burst_suspects: set = set()

    # -- event path ---------------------------------------------------------
    def _handle_event(self, event: pi5.PortEvent) -> None:
        if not self._enabled:
            self.counters.incr("events_before_enable")
            return
        # External change signal: reset the automatic-restart budget
        # (mirrors FabricManager._handle_event).
        self._restart_streak = 0
        if self.is_discovering:
            # Defer; FabricManager re-checks these against the fresh
            # database when the full run finishes.
            self.counters.incr("events_during_discovery")
            self._deferred_events.append(event)
            return
        if not self.history:
            # No baseline database yet: run the initial full discovery.
            self.counters.incr("changes_assimilated")
            self.start_discovery(trigger="change")
            return
        key = (event.reporter_dsn, event.port)
        if self._burst_stats is not None:
            # A burst is already assimilating: queue everything into it
            # — even events from reporters the database does not (yet)
            # know.  The in-flight region exploration may discover
            # them; if not, they are safely skippable (any reachable
            # change is also reported by a known boundary device, and
            # an unreachable one is invisible to the FM regardless).
            if key in self._burst_seen:
                self.counters.incr("events_stale")
                return
            self._burst_seen.add(key)
            self._event_queue.append(event)
            return
        if event.reporter_dsn not in self.database:
            self.counters.incr("partial_fallbacks")
            self.start_discovery(trigger="change")
            return
        record = self.database.device(event.reporter_dsn)
        known = record.ports.get(event.port)
        if known is not None and known.up == event.up:
            self.counters.incr("events_stale")
            return
        self._burst_seen = {key}
        self._event_queue.append(event)
        self._burst_stats = DiscoveryStats(
            algorithm=PARTIAL, trigger="change",
            started_at=self.env.now,
        )
        if self.tracer is not None:
            self._burst_span = self.tracer.begin(
                "assimilation:partial", "discovery", self.env.now,
                track="fm", algorithm=PARTIAL, trigger="change",
            )
        self.counters.incr("changes_assimilated")
        self._next_event()

    def _active_stats(self):
        if self._burst_stats is not None:
            return self._burst_stats
        return super()._active_stats()

    @property
    def is_assimilating(self) -> bool:
        """Whether a partial assimilation burst is in progress."""
        return self._burst_stats is not None

    @property
    def busy(self) -> bool:
        return self.is_discovering or self.is_assimilating

    def start_discovery(self, trigger: str = "initial",
                        force: bool = False):
        """A forced start in the middle of a burst drops the burst
        first: its completions would otherwise land on the database
        the full run has just cleared."""
        if force and self.is_assimilating:
            self._drop_burst()
        return super().start_discovery(trigger, force)

    # -- burst processing -----------------------------------------------------
    def _next_event(self) -> None:
        while self._event_queue and \
                self._event_queue[0].reporter_dsn not in self.database:
            # The reporter itself was pruned by an earlier step of this
            # burst; nothing left to confirm there.
            self._event_queue.popleft()
        if not self._event_queue:
            self._finish_burst()
            return
        event = self._event_queue.popleft()
        record = self.database.device(event.reporter_dsn)
        # Step 1: confirm the reported port state with one read.
        message = pi4.ReadRequest(
            cap_id=0, offset=port_block_offset(event.port), tag=0, count=1,
        )
        out = record.out_port if record.ingress_port is not None else None
        self.send_request(
            message, record.route(), out,
            callback=self._on_confirm, ctx=(event, record),
            span_parent=self._burst_span,
        )

    def _on_confirm(self, completion, ctx) -> None:
        event, record = ctx
        if completion is None or not isinstance(completion,
                                                pi4.ReadCompletion):
            # The reporter itself is unreachable: the change is bigger
            # than the event suggests.  Full rediscovery.
            self.counters.incr("partial_fallbacks")
            self._abort_burst_to_full()
            return
        from ...capability import decode_port_status

        status = decode_port_status(completion.data[0])
        if not status["up"]:
            self._assimilate_down(event, record)
        else:
            self._assimilate_up(event, record)

    def _assimilate_down(self, event: pi5.PortEvent, record) -> None:
        port = record.ports.get(event.port)
        suspect = port.neighbor_dsn if port is not None else None
        self.database.mark_port_down(record.dsn, event.port)

        # A down port could be a single link failure (the far device is
        # still alive) or the visible edge of a device removal whose
        # other PI-5 events were lost (their event routes may cross the
        # failed region).  Distinguish with one liveness probe of the
        # far device over an alternate route — the affected-region
        # strategy of the paper's reference [2].
        if suspect is not None and suspect in self.database:
            from ...routing.paths import PathError, db_route

            try:
                pool, out_port = db_route(
                    self.database, self.endpoint.dsn, suspect
                )
            except PathError:
                # No alternate route: the suspect region hangs off the
                # failed link and pruning below removes it.
                pool = None
            if pool is not None:
                out = out_port if pool.bits or out_port is not None else None
                probe = pi4.ReadRequest(cap_id=0, offset=0, tag=0, count=1)
                self.send_request(
                    probe, pool, out_port,
                    callback=self._on_liveness_probe,
                    ctx=suspect,
                    retries=0,
                    span_parent=self._burst_span,
                )
                return  # continue in the probe callback

        self._settle_down_event()

    def _on_liveness_probe(self, completion, suspect: int) -> None:
        if completion is None and suspect in self.database:
            # The device is gone: take all its links down so pruning
            # removes its region in one step.
            suspect_record = self.database.device(suspect)
            for index, far_port in list(suspect_record.ports.items()):
                if far_port.up:
                    self.database.mark_port_down(suspect, index)
        self._settle_down_event()

    def _settle_down_event(self) -> None:
        removed = self.database.prune_unreachable(self.endpoint.dsn)
        self._burst_stats.devices_found = len(self.database)
        try:
            self.database.recompute_routes(self.endpoint.dsn,
                                           incremental=True)
        except DatabaseError:
            self.counters.incr("partial_fallbacks")
            self._abort_burst_to_full()
            return
        self._next_event()

    def _assimilate_up(self, event: pi5.PortEvent, record) -> None:
        if event.port == record.ingress_port:
            # The reported port is the one the FM's own route enters
            # the reporter through — the confirm read just traversed
            # it, so the link is alive and its far side is the already
            # known path parent (a restored-link flap).  Re-record the
            # link; exploring "through" it would be a U-turn.
            port = record.port(event.port)
            port.up = True
            self.database.touch(record.dsn)
            if port.neighbor_dsn is not None and \
                    port.neighbor_dsn in self.database:
                self.database.add_link(record.dsn, event.port,
                                       port.neighbor_dsn,
                                       port.neighbor_port)
            self._next_event()
            return
        try:
            hops, out_port = self.database.extend_route(record, event.port)
        except DatabaseError:
            self.counters.incr("partial_fallbacks")
            self._abort_burst_to_full()
            return
        region = _RegionExploration(self)
        region.stats = self._burst_stats  # aggregate into the burst
        # Claim/port-read spans nest under the burst's span; the burst
        # (not the region) closes it.
        region.span = self._burst_span
        region._span_owned = False
        region.done_event.callbacks.append(lambda _ev: self._region_done())
        self._region = region
        region.start_at([
            Target(hops=hops, out_port=out_port,
                   via_dsn=record.dsn, via_port=event.port)
        ])

    def _region_done(self) -> None:
        if self._region is not None:
            # Mid-walk failures inside the region re-read leave the
            # same silent holes a full walk can suffer; carry them to
            # the burst-level repair policy.
            self._burst_suspects |= self._region.suspect_roots
        self._region = None
        self._next_event()

    def _finish_burst(self) -> None:
        stats = self._burst_stats
        self._burst_stats = None
        self._burst_seen = set()
        stats.finished_at = self.env.now
        stats.devices_found = len(self.database)
        if self._burst_span is not None and self.tracer is not None:
            self.tracer.end(self._burst_span, stats.finished_at,
                            devices=stats.devices_found)
        self._burst_span = None
        self._record(stats)
        suspects, self._burst_suspects = self._burst_suspects, set()
        if suspects:
            if self._resolve_inconsistency(suspects, stats):
                # A follow-up repair burst or full rediscovery will
                # program the event routes once it converges.
                return
        else:
            self._restart_streak = 0
        # Reprogram event routes: pruning/exploration may have changed
        # them for part of the fabric.  (Writes are idempotent.)
        # Keep a still-pending ready_event (a repair burst rides on the
        # preceding full run's ready) instead of orphaning its waiters.
        if self.ready_event is None or self.ready_event.triggered:
            self.ready_event = self.env.event()
        self._finish_ready(stats)

    # -- targeted subtree repair ---------------------------------------------
    def _attempt_repair(self, suspects: set) -> bool:
        """Re-explore suspect subtrees via the assimilation machinery.

        Synthesizes an *up* event for every recorded-up, non-ingress
        port of each suspect device and runs them as one burst: the
        confirm read re-checks the reporter's liveness and port state,
        the region exploration re-walks whatever hangs behind it, and
        the existing fallback path escalates to a full rediscovery if
        the reporter itself is gone.  Much cheaper than discarding the
        whole database when only one branch is in doubt.
        """
        if self.busy:
            return False
        events = []
        seen = set()
        for dsn in sorted(suspects):
            if dsn not in self.database:
                continue
            record = self.database.device(dsn)
            for index in sorted(record.ports):
                port = record.ports[index]
                if port.up and index != record.ingress_port:
                    events.append(pi5.PortEvent(
                        reporter_dsn=dsn, port=index, up=True, seq=0,
                    ))
                    seen.add((dsn, index))
        if not events:
            return False
        self._burst_seen = seen
        self._event_queue.extend(events)
        self._burst_stats = DiscoveryStats(
            algorithm=PARTIAL, trigger="repair",
            started_at=self.env.now,
        )
        if self.tracer is not None:
            self._burst_span = self.tracer.begin(
                "repair:partial", "discovery", self.env.now,
                track="fm", algorithm=PARTIAL, trigger="repair",
            )
        self._next_event()
        return True

    def _drop_burst(self) -> DiscoveryStats:
        """Forget the burst in progress and whatever it has in flight;
        returns its ledger."""
        self._event_queue.clear()
        self._burst_seen = set()
        self._burst_suspects = set()
        stats = self._burst_stats
        self._burst_stats = None
        self._region = None
        if self._burst_span is not None and self.tracer is not None:
            self.tracer.end(self._burst_span, self.env.now,
                            aborted_to_full=True)
        self._burst_span = None
        # cancel_all == the historical ``_pending.clear()`` (no
        # callbacks fire) plus closure of the orphaned spans.
        self.engine.cancel_all()
        return stats

    def _abort_burst_to_full(self) -> None:
        """Give up on partial assimilation; run a full discovery."""
        stats = self._drop_burst()
        if (stats.trigger == "repair"
                and self._restart_streak >= self.max_discovery_restarts):
            # A failed *repair* escalation is an automatic recovery
            # action like any other: past the budget, surface the
            # abort instead of launching yet another full walk.
            stats.aborted = True
            stats.finished_at = self.env.now
            stats.devices_found = len(self.database)
            self.counters.incr("discovery_aborted")
            self._record(stats)
            if self.ready_event is None or self.ready_event.triggered:
                self.ready_event = self.env.event()
            self._finish_ready(stats)
            return
        if stats.trigger == "repair":
            self._restart_streak += 1
            self.counters.incr("discovery_restarts")
        full = self.start_discovery(trigger="change-fallback", force=True)
        # Carry the packets already spent into the full run's ledger.
        full.stats.requests_sent += stats.requests_sent
        full.stats.completions_received += stats.completions_received
        full.stats.bytes_sent += stats.bytes_sent
        full.stats.bytes_received += stats.bytes_received
        full.stats.started_at = stats.started_at
