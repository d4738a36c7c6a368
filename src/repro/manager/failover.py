"""Fabric-manager failover.

"If the primary FM fails, the secondary one takes over" (paper,
section 2).  Where the spec runs an election to pick the pair, this
model places them by rule: the primary on the topology's FM host, the
standby on the far-corner endpoint
(:func:`repro.experiments.failover.build_failover_pair`).  The
secondary runs in standby: it periodically reads one
dword of the primary's baseline capability (a heartbeat built from the
same PI-4 machinery as discovery).  After ``miss_threshold``
consecutive heartbeats time out, the standby promotes itself.

The standby subscribes to the primary's PI-5 tee and keeps a mirror of
its database, cloned at start and again on every :data:`SYNC_EVERY`-th
answered heartbeat (skipped while the primary is mid-walk): one
periodic read is both the liveness probe and the mirror's sync.  The
heartbeat follows a source route to the primary computed when the pair
is built; once the tee marks a port on it down, the standby re-resolves
the route from its mirror, so churn on the route does not read as a
dead primary.  A heartbeat read is an ordinary PI-4 request: it times
out, retries and backs off under the wrapped FM's transaction policy
like every other request.

The heartbeat, the takeover and its convergence and fencing polls are
chains of callbacks and timers.

One takeover.  The standby installs its mirror of the primary's
:class:`~repro.manager.database.TopologyDatabase`.  The mirror is fed
by the primary's PI-5 tee (``pi5_listeners`` — the control-plane
replication channel every real redundant manager pair maintains) and
refreshed on every :data:`SYNC_EVERY`-th answered heartbeat.  The
heartbeat read carries the transfer cost while the record content
rides out-of-band.  On promotion the mirror becomes the live database
(rebased to the standby's vantage point), a verify pass re-reads every
device's port-status blocks, and only the *differences* are repaired —
fed as synthesized PI-5 events through the partial-assimilation
repair-burst machinery — instead of rediscovering the fabric from
scratch (the report's ``mode`` is ``"warm"``).  Only a mirror that
cannot be installed — no clone ever landed (the primary was mid-walk
at every sync), or the standby is not in it — sends the promoted
standby on a full discovery from its own vantage point (``"cold"``).

Fencing: on takeover the standby advances the ownership epoch past the
primary's and (when the wrapped FM has ``fence_ownership`` on) stamps
every device's claim capability with the new epoch.  A resurrected old
primary re-reads those claims after its next discovery, observes the
newer generation, and demotes itself instead of split-braining the
fabric (see :meth:`~repro.manager.fm.FabricManager.demote`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..capability import (
    BASELINE_CAP_ID,
    MAX_READ_DWORDS,
    PORT_BLOCK_DWORDS,
    decode_port_status,
    port_block_offset,
)
from ..protocols import pi4, pi5
from ..routing.paths import PathError, db_route
from ..routing.turnpool import TurnPool, TurnPoolError, route_step
from ..sim.events import URGENT, Event
from .database import DatabaseError, TopologyDatabase
from .discovery.base import DiscoveryStats
from .fm import FabricManager

#: Every this many answered heartbeats, the standby refreshes its mirror.
SYNC_EVERY = 5


@dataclass
class FailoverReport:
    """What happened during a takeover."""

    detected_at: float
    discovery_done_at: float
    missed_heartbeats: int
    #: ``"warm"`` when the mirror-and-repair path ran; ``"cold"`` for
    #: the full rediscovery of a standby whose mirror was unusable.
    mode: str = "cold"
    #: Sim time the primary actually died, when known (stamped by the
    #: fault plane via :meth:`StandbyManager.note_primary_failure`).
    failed_at: Optional[float] = None
    #: Port-state differences the warm verify pass repaired.
    repairs: int = 0
    #: Devices in the database once the takeover converged.
    devices_recovered: int = 0

    @property
    def recovery_time(self) -> float:
        """Seconds from failure detection to a fresh topology."""
        return self.discovery_done_at - self.detected_at

    @property
    def detection_latency(self) -> Optional[float]:
        """Seconds from the primary's death to detection; ``None``
        when the death is unknown or came after the promotion."""
        if self.failed_at is None or self.failed_at > self.detected_at:
            return None
        return self.detected_at - self.failed_at


class StandbyManager:
    """A secondary FM in standby, monitoring the primary."""

    def __init__(self, fm: FabricManager, primary: FabricManager,
                 primary_route: Tuple[TurnPool, int],
                 heartbeat_interval: float, miss_threshold: int):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss threshold must be at least 1")
        #: The wrapped manager (construct it with ``auto_start=False``
        #: so it stays passive until promoted).
        self.fm = fm
        self.env = fm.env
        self.primary_pool, self.primary_out_port = primary_route
        self.heartbeat_interval = heartbeat_interval
        self.miss_threshold = miss_threshold
        self.primary = primary
        #: Heartbeat time between two mirror syncs of a live primary.
        self.sync_interval = SYNC_EVERY * heartbeat_interval

        self.active = False
        self.misses = 0
        self.heartbeats_sent = 0
        self.heartbeats_answered = 0
        #: Passive replica of the primary's database, rebased to this
        #: standby's vantage point at every sync.
        self.mirror = TopologyDatabase()
        self.mirror_syncs = 0
        self.mirror_events = 0
        #: Sim time the primary died, when the fault plane tells us
        #: (:meth:`note_primary_failure`); feeds detection latency.
        self.primary_failed_at: Optional[float] = None
        #: The report of a completed takeover (also the value of
        #: ``takeover_event``).
        self.report: Optional[FailoverReport] = None
        #: Triggers with a :class:`FailoverReport` once a takeover has
        #: converged (routes reprogrammed, claims stamped).
        self.takeover_event: Event = self.env.event()
        self._started = False
        self._detected_at: Optional[float] = None
        self._stopping = False
        #: The heartbeat's latest interval timer.
        self._wait = None
        primary.pi5_listeners.append(self._on_primary_event)

    def start(self) -> None:
        """Begin monitoring the primary."""
        if self._started:
            raise RuntimeError("standby already started")
        self._started = True
        self.env.schedule_callback(0.0, lambda _handle: self._sleep(),
                                   URGENT)
        # Bootstrap the mirror from the primary's current database.
        self._clone_primary()

    def stop(self) -> None:
        """Shut the standby down *now*.

        The pending heartbeat-interval timeout is cancelled, so the
        heartbeat stops immediately instead of waking once more (and
        possibly sending one last heartbeat) up to a full interval
        later.  A heartbeat already in flight is left to complete; its
        reply is ignored (it can no longer touch the miss/answer
        counters).  Safe to call repeatedly, or after a takeover — a
        takeover already under way keeps running and ``takeover_event``
        still resolves with its report; a standby stopped *before* any
        takeover leaves ``takeover_event`` untriggered forever.
        """
        self._stopping = True
        self._cancel()
        self._unsubscribe()

    def note_primary_failure(self, time: Optional[float] = None) -> None:
        """Record when the primary died (fault plane hook)."""
        if self.primary_failed_at is None:
            self.primary_failed_at = self.env.now if time is None else time

    def promote(self) -> Event:
        """Promote immediately, without waiting for missed heartbeats.

        Used by the service's ``promote_standby`` verb and by tests;
        returns ``takeover_event``.  A no-op if already active.
        """
        if not self.active and not self._stopping:
            self._take_over()
        return self.takeover_event

    # -- heartbeat ------------------------------------------------------------
    def _sleep(self) -> None:
        """One link of the heartbeat chain: after ``heartbeat_interval``
        read one baseline dword of the primary, hand the completion
        (``None`` on timeout) to :meth:`_on_heartbeat` and sleep again;
        ends once the standby is stopped or promoted.

        The pending interval timer sits in ``_wait`` (so :meth:`stop`
        and :meth:`_take_over` can cancel it).  Each link's closures
        reach the next only through this method, never each other's
        cells, so an ended chain leaves no reference cycle behind for
        the cyclic collector (which :meth:`Environment.run` holds
        off)."""
        if self.active or self._stopping:
            return

        def read(_handle) -> None:
            reply = self.env.event()
            reply.callbacks.append(replied)
            message = pi4.ReadRequest(
                cap_id=BASELINE_CAP_ID, offset=0, tag=0, count=1,
            )
            self.heartbeats_sent += 1
            self.fm.send_request(
                message, self.primary_pool, self.primary_out_port,
                callback=lambda completion, _ctx: reply.succeed(completion),
            )

        def replied(reply: Event) -> None:
            # Stopped or promoted (e.g. via :meth:`promote`) while the
            # read was in flight: the late reply must not touch the
            # miss/answer accounting or the mirror.
            if not (self.active or self._stopping):
                self._on_heartbeat(reply.value)
                self._sleep()

        self._wait = self.env.schedule_callback(self.heartbeat_interval,
                                                read)

    def _cancel(self) -> None:
        """Cancel the heartbeat's pending interval timer."""
        if self._wait is not None:
            self.env.cancel(self._wait)

    def _on_heartbeat(self, completion) -> None:
        if isinstance(completion, pi4.ReadCompletion):
            self.heartbeats_answered += 1
            self.misses = 0
            # A read that timed out never refreshes the mirror.
            if self.heartbeats_answered % SYNC_EVERY == 0:
                self._clone_primary()
            return
        self.misses += 1
        if self.misses >= self.miss_threshold:
            self._take_over()

    # -- mirror ---------------------------------------------------------------
    def _unsubscribe(self) -> None:
        try:
            self.primary.pi5_listeners.remove(self._on_primary_event)
        except ValueError:
            pass

    def _on_primary_event(self, event: pi5.PortEvent) -> None:
        """PI-5 tee from the primary: keep the mirror's ports current."""
        self.mirror_events += 1
        if event.reporter_dsn not in self.mirror:
            return
        record = self.mirror.device(event.reporter_dsn)
        if not 0 <= event.port < record.nports:
            return
        if event.up:
            # The far side is unknown until the next sync or the
            # promotion verify pass explores behind the port.
            record.port(event.port).up = True
            self.mirror.touch(event.reporter_dsn)
        else:
            try:
                self.mirror.mark_port_down(event.reporter_dsn, event.port)
            except DatabaseError:
                return
            if self._route_cut():
                self._reroute()

    def _route_cut(self) -> bool:
        """Whether the route to the primary crosses a port the mirror
        holds down.  Walks the route hop by hop through the mirror; a
        hop the mirror cannot follow counts as intact."""
        mirror, pool = self.mirror, self.primary_pool
        dsn, egress = self.fm.endpoint.dsn, self.primary_out_port
        pointer = pool.bits
        try:
            while True:
                port = mirror.device(dsn).ports.get(egress)
                if port is None or not port.up or port.neighbor_port is None:
                    return port is not None and port.up is False
                record = mirror.device(port.neighbor_dsn)
                if not record.is_switch:
                    return False
                dsn = record.dsn
                egress, pointer = route_step(0, pool.pool, pointer,
                                             port.neighbor_port,
                                             record.nports)
        except (DatabaseError, TurnPoolError):
            return False

    def _reroute(self) -> None:
        """Heartbeat along the mirror's shortest route to the primary
        from now on; keep the old one if there is none."""
        try:
            route = db_route(self.mirror, self.fm.endpoint.dsn,
                             self.primary.endpoint.dsn)
        except PathError:
            return
        self.primary_pool, self.primary_out_port = route

    def _clone_primary(self) -> None:
        """Snapshot the primary's database into the mirror, unless the
        primary is mid-walk: then the tee is ahead of its database (a
        burst's queued events, a half-walked rediscovery) and a copy
        would forget port states the mirror already holds."""
        source = self.primary.database
        if self.primary.busy or self.fm.endpoint.dsn not in source:
            return
        mirror = source.copy()
        try:
            # Routes in the snapshot are relative to the *primary*;
            # rebase them to this standby's vantage point now, so the
            # mirror is promotion-ready the moment the primary dies.
            mirror.recompute_routes(self.fm.endpoint.dsn)
        except DatabaseError:
            return
        self.mirror = mirror
        self.mirror_syncs += 1

    # -- takeover -------------------------------------------------------------
    def _take_over(self) -> None:
        """Promote this standby to active fabric manager."""
        self.active = True
        self._detected_at = self.env.now
        self._cancel()
        self._unsubscribe()
        fm = self.fm
        # Fencing: the new reign runs one epoch past the old one, so
        # stamped claims override the dead primary's everywhere and a
        # resurrected old primary sees it was deposed.
        fm.epoch = max(fm.epoch, self.primary.epoch) + 1
        # Rediscover only when there is no usable mirror to install.
        if len(self.mirror) > 1 and fm.endpoint.dsn in self.mirror:
            self.env.schedule_callback(0.0, self._warm_takeover, URGENT)
        else:
            self._cold_takeover()

    def _finish_takeover(self, mode: str, repairs: int = 0) -> None:
        self.report = FailoverReport(
            detected_at=self._detected_at,
            discovery_done_at=self.env.now,
            missed_heartbeats=self.misses,
            mode=mode,
            failed_at=self.primary_failed_at,
            repairs=repairs,
            devices_recovered=len(self.fm.database),
        )
        if not self.takeover_event.triggered:
            self.takeover_event.succeed(self.report)

    def _cold_takeover(self) -> None:
        fm = self.fm
        fm.start_discovery(trigger="failover")
        # The pending ready_event survives automatic restarts, so this
        # fires once the rediscovery has actually converged and the
        # event routes point at the new manager.
        fm.ready_event.callbacks.append(
            lambda _event: self._finish_takeover("cold")
        )

    def _warm_takeover(self, _handle) -> None:
        """Mirror-install + verify/repair promotion pipeline: install,
        then :meth:`_repair` once the verify reads settle."""
        fm = self.fm
        fm._enabled = True
        self._install_mirror()
        # Synthetic history entry: the partial-assimilation machinery
        # treats an empty history as "never discovered" and would
        # cold-start on the first synthesized event; this also gives
        # quiescence checks a last-run record for the takeover itself.
        stats = DiscoveryStats(
            algorithm=fm.algorithm_key, trigger="failover",
            started_at=self._detected_at,
        )
        fm.history.append(stats)
        fm._arm_ready()
        self._verify_ports().callbacks.append(
            lambda verified: self._repair(stats, *verified.value)
        )

    def _repair(self, stats: DiscoveryStats, mismatches: Set[tuple],
                dead: Set[int]) -> None:
        fm = self.fm
        for dsn in sorted(dead):
            if dsn not in fm.database:
                continue
            record = fm.database.device(dsn)
            for index, port in sorted(record.ports.items()):
                if port.up:
                    fm.database.mark_port_down(dsn, index)
        if dead:
            fm.database.prune_unreachable(fm.endpoint.dsn)
        fm.database.recompute_routes(fm.endpoint.dsn)

        repairs = 0
        for dsn, port, up in sorted(mismatches):
            if dsn not in fm.database:
                continue  # pruned with a dead region above
            known = fm.database.device(dsn).ports.get(port)
            if known is not None and known.up == up:
                # Already applied by the dead-device cleanup (marking a
                # corpse's link down updates both ends); feeding it
                # would be judged stale and open no repair burst.
                continue
            repairs += 1
            fm._handle_event(pi5.PortEvent(
                reporter_dsn=dsn, port=port, up=up, seq=0,
            ))
        fm.counters.incr("warm_takeover_repairs", repairs)
        if not repairs:
            fm._program_event_routes()
        # A repair burst (or its escalation) reprograms the event
        # routes and resolves ready_event when it converges.
        self._when(self._converged, self._fence, stats, repairs)

    def _converged(self) -> bool:
        """The FM is quiet and its ready_event resolved (or demoted)."""
        fm = self.fm
        ready = fm.ready_event is not None and fm.ready_event.triggered
        return (not fm.busy and ready) or fm.demoted

    def _when(self, condition, then, *args) -> None:
        """``then(*args)`` once ``condition()`` holds: now if it does,
        else at the first quarter-heartbeat poll that finds it."""
        if condition():
            then(*args)
        else:
            self.env.call_later(self.heartbeat_interval / 4, self._when,
                                condition, then, *args)

    def _fence(self, stats: DiscoveryStats, repairs: int) -> None:
        """Stamp every claim with the new epoch, then finish."""
        fm = self.fm
        if fm.fence_ownership and not fm.demoted and len(fm.database) > 1:
            stamped = []
            fm._stamp_ownership(stats, then=lambda: stamped.append(True))
            self._when(lambda: stamped or fm.demoted,
                       self._finish_warm, stats, repairs)
        else:
            self._finish_warm(stats, repairs)

    def _finish_warm(self, stats: DiscoveryStats, repairs: int) -> None:
        stats.finished_at = self.env.now
        stats.devices_found = len(self.fm.database)
        self._finish_takeover("warm", repairs=repairs)

    def _install_mirror(self) -> None:
        """Make the mirror the live database (already rebased)."""
        fm = self.fm
        # Into the FM's own database object: its discovery algorithms
        # and its transaction policy's ``known_devices`` hold it.
        vars(fm.database).update(vars(self.mirror.copy()))
        fm.database.recompute_routes(fm.endpoint.dsn)

    def _verify_ports(self) -> Event:
        """Re-read every mirrored device's port-status blocks.

        The returned event resolves, once all chunked reads settle,
        with ``(mismatches, dead)`` where mismatches are ``(dsn, port,
        live_up)`` triples the mirror disagrees on and ``dead`` is the
        set of devices that answered nothing.  A primary whose
        heartbeats went unanswered is dead without another read: each
        of them already waited out the request's retries.
        """
        fm = self.fm
        dead: Set[int] = set()
        if self.misses >= self.miss_threshold:
            dead.add(self.primary.endpoint.dsn)
        records = [r for r in fm.database.devices()
                   if r.ingress_port is not None and r.dsn not in dead]
        mismatches: Set[tuple] = set()
        done = self.env.event()
        ports_per_read = MAX_READ_DWORDS // PORT_BLOCK_DWORDS

        def on_status(completion, ctx) -> None:
            record, first = ctx
            ok = (isinstance(completion, pi4.ReadCompletion)
                  and getattr(completion, "status",
                              pi4.STATUS_OK) == pi4.STATUS_OK)
            if not ok:
                dead.add(record.dsn)
                return
            data = list(completion.data)
            for i in range(len(data) // PORT_BLOCK_DWORDS):
                index = first + i
                live_up = decode_port_status(
                    data[i * PORT_BLOCK_DWORDS]
                )["up"]
                known = record.ports.get(index)
                known_up = None if known is None else known.up
                if known_up is None:
                    if live_up:
                        mismatches.add((record.dsn, index, True))
                elif bool(known_up) != live_up:
                    mismatches.add((record.dsn, index, live_up))

        def request(record, first: int):
            count = min(ports_per_read,
                        record.nports - first) * PORT_BLOCK_DWORDS
            message = pi4.ReadRequest(
                cap_id=BASELINE_CAP_ID,
                offset=port_block_offset(first), tag=0, count=count,
            )
            return message, record.route(), record.out_port, (record, first)

        def settled() -> None:
            # Mismatches on dead reporters are handled by the prune path.
            done.succeed(
                ({m for m in mismatches if m[0] not in dead}, dead)
            )

        fm.send_all(
            (request(record, first) for record in records
             for first in range(0, record.nports, ports_per_read)),
            on_status, settled,
        )
        return done
