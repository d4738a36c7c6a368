"""Fabric-manager failover.

"If the primary FM fails, the secondary one takes over" (paper,
section 2).  The secondary runs in standby: it periodically reads one
dword of the primary's baseline capability (a heartbeat built from the
same PI-4 machinery as discovery).  After ``miss_threshold``
consecutive heartbeats time out, the standby promotes itself.

Two takeover modes:

``cold``
    The promoted standby runs a full discovery from its own vantage
    point, so all routes are recomputed relative to the new manager.
    Simple, but recovery time scales with the whole fabric.

``warm``
    While the primary is healthy, the standby passively mirrors its
    :class:`~repro.manager.database.TopologyDatabase`: it subscribes to
    the primary's PI-5 tee (``pi5_listeners`` — the control-plane
    replication channel every real redundant manager pair maintains)
    and refreshes the mirror on periodic sync reads over the same PI-4
    transaction engine the heartbeat uses.  As with collaborative
    discovery, one modelled read per sync carries the transfer cost
    while the record content rides out-of-band.  On promotion the
    mirror becomes the live database (rebased to the standby's vantage
    point), a verify pass re-reads every device's port-status blocks,
    and only the *differences* are repaired — fed as synthesized PI-5
    events through the partial-assimilation repair-burst machinery —
    instead of rediscovering the fabric from scratch.

Fencing: on takeover the standby advances the ownership epoch past the
primary's and (when the wrapped FM has ``fence_ownership`` on) stamps
every device's claim capability with the new epoch.  A resurrected old
primary re-reads those claims after its next discovery, observes the
newer generation, and demotes itself instead of split-braining the
fabric (see :meth:`~repro.manager.fm.FabricManager.demote`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..capability import (
    BASELINE_CAP_ID,
    MAX_READ_DWORDS,
    PORT_BLOCK_DWORDS,
    decode_port_status,
    port_block_offset,
)
from ..protocols import pi4, pi5
from ..routing.turnpool import TurnPool
from ..sim.events import Event
from .database import DatabaseError, TopologyDatabase
from .discovery.base import DiscoveryStats
from .fm import FabricManager

#: Supported takeover modes.
MODES = ("cold", "warm")


@dataclass
class FailoverReport:
    """What happened during a takeover."""

    detected_at: float
    discovery_done_at: float
    missed_heartbeats: int
    #: ``"warm"`` when the mirror-and-repair path ran; ``"cold"`` for a
    #: full rediscovery (including a warm standby falling back on an
    #: empty mirror).
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
        """Seconds from the primary's death to detection (if known)."""
        if self.failed_at is None:
            return None
        return self.detected_at - self.failed_at


class StandbyManager:
    """A secondary FM in standby, monitoring the primary."""

    def __init__(self, fm: FabricManager,
                 primary_route: Tuple[TurnPool, int],
                 heartbeat_interval: float = 2e-3,
                 miss_threshold: int = 3,
                 mode: str = "cold",
                 primary: Optional[FabricManager] = None):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss threshold must be at least 1")
        if mode not in MODES:
            raise ValueError(f"unknown takeover mode {mode!r} "
                             f"(choose from {MODES})")
        if mode == "warm" and primary is None:
            raise ValueError("warm standby needs the primary FM reference "
                             "(its PI-5 tee feeds the mirror)")
        #: The wrapped manager (construct it with ``auto_start=False``
        #: so it stays passive until promoted).
        self.fm = fm
        self.env = fm.env
        self.primary_pool, self.primary_out_port = primary_route
        self.heartbeat_interval = heartbeat_interval
        self.miss_threshold = miss_threshold
        self.mode = mode
        self.primary = primary
        self.sync_interval = 5 * heartbeat_interval

        self.active = False
        self.misses = 0
        self.heartbeats_sent = 0
        self.heartbeats_answered = 0
        #: Passive replica of the primary's database (warm mode),
        #: rebased to this standby's vantage point at every sync.
        self.mirror = TopologyDatabase()
        self.sync_reads = 0
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
        self._proc = None
        self._sync_proc = None
        self._detected_at: Optional[float] = None
        self._stopping = False
        #: The interval Timeout the monitor is currently sleeping on.
        self._wait = None
        #: The interval Timeout the sync loop is currently sleeping on.
        self._sync_wait = None
        if mode == "warm":
            primary.pi5_listeners.append(self._on_primary_event)

    def start(self) -> None:
        """Begin monitoring the primary."""
        if self._proc is not None:
            raise RuntimeError("standby already started")
        self._proc = self.env.process(
            self._monitor(), name=f"standby:{self.fm.endpoint.name}"
        )
        if self.mode == "warm":
            # Bootstrap the mirror from the primary's current database
            # (the pair is wired up while the primary is healthy).
            self._clone_primary()
            self._sync_proc = self.env.process(
                self._sync(), name=f"standby-sync:{self.fm.endpoint.name}"
            )

    def stop(self) -> None:
        """Shut the standby down *now*.

        The pending heartbeat-interval and sync timeouts are cancelled,
        so the monitor stops immediately instead of waking once more
        (and possibly sending one last heartbeat) up to a full interval
        later.  A heartbeat already in flight is left to complete; its
        reply is ignored (it can no longer touch the miss/answer
        counters).  Safe to call repeatedly, or after a takeover — a
        takeover already under way keeps running and ``takeover_event``
        still resolves with its report; a standby stopped *before* any
        takeover leaves ``takeover_event`` untriggered forever.
        """
        self._stopping = True
        for attr in ("_wait", "_sync_wait"):
            wait = getattr(self, attr)
            if wait is not None and not wait.triggered:
                # The generator stays suspended on the cancelled event
                # forever; it holds no simulation resources and
                # schedules nothing further.
                self.env.cancel(wait)
                setattr(self, attr, None)
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
            if self._wait is not None and not self._wait.triggered:
                self.env.cancel(self._wait)
                self._wait = None
            self._take_over()
        return self.takeover_event

    # -- monitoring loop ------------------------------------------------------
    def _monitor(self):
        while not self.active and not self._stopping:
            self._wait = self.env.timeout(self.heartbeat_interval)
            yield self._wait
            self._wait = None
            if self.active or self._stopping:
                return
            reply_event = self.env.event()
            message = pi4.ReadRequest(
                cap_id=BASELINE_CAP_ID, offset=0, tag=0, count=1,
            )
            self.heartbeats_sent += 1
            self.fm.send_request(
                message, self.primary_pool, self.primary_out_port,
                callback=lambda completion, _ctx: reply_event.succeed(
                    completion
                ),
            )
            completion = yield reply_event
            if self._stopping or self.active:
                # Stopped or promoted (e.g. via :meth:`promote`) while
                # the heartbeat was in flight: the late reply must not
                # touch the miss/answer accounting.
                return
            if completion is None or not isinstance(completion,
                                                    pi4.ReadCompletion):
                self.misses += 1
                if self.misses >= self.miss_threshold:
                    self._take_over()
                    return
            else:
                self.heartbeats_answered += 1
                self.misses = 0

    # -- warm mirror ----------------------------------------------------------
    def _unsubscribe(self) -> None:
        if self.primary is not None:
            try:
                self.primary.pi5_listeners.remove(self._on_primary_event)
            except ValueError:
                pass

    def _on_primary_event(self, event: pi5.PortEvent) -> None:
        """PI-5 tee from the primary: keep the mirror's ports current."""
        if self.active or self._stopping:
            return
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
                pass

    def _sync(self):
        while not self.active and not self._stopping:
            self._sync_wait = self.env.timeout(self.sync_interval)
            yield self._sync_wait
            self._sync_wait = None
            if self.active or self._stopping:
                return
            reply_event = self.env.event()
            message = pi4.ReadRequest(
                cap_id=BASELINE_CAP_ID, offset=0, tag=0, count=1,
            )
            self.sync_reads += 1
            self.fm.send_request(
                message, self.primary_pool, self.primary_out_port,
                callback=lambda completion, _ctx: reply_event.succeed(
                    completion
                ),
            )
            completion = yield reply_event
            if self.active or self._stopping:
                return
            if isinstance(completion, pi4.ReadCompletion):
                self._clone_primary()
            # A failed sync read is not a miss: the heartbeat loop owns
            # failure detection; the mirror just stays a beat staler.

    def _clone_primary(self) -> None:
        """Snapshot the primary's database into the mirror."""
        source = self.primary.database
        if self.fm.endpoint.dsn not in source:
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
        if self._sync_wait is not None and not self._sync_wait.triggered:
            self.env.cancel(self._sync_wait)
            self._sync_wait = None
        self._unsubscribe()
        fm = self.fm
        # Fencing: the new reign runs one epoch past the old one, so
        # stamped claims override the dead primary's everywhere and a
        # resurrected old primary sees it was deposed.
        base = self.primary.epoch if self.primary is not None else fm.epoch
        fm.epoch = max(fm.epoch, base) + 1
        warm_ready = (
            self.mode == "warm"
            and len(self.mirror) > 1
            and fm.endpoint.dsn in self.mirror
        )
        if warm_ready:
            self.env.process(
                self._warm_takeover(),
                name=f"standby-promote:{fm.endpoint.name}",
            )
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

    def _warm_takeover(self):
        """Mirror-install + verify/repair promotion pipeline."""
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

        mismatches, dead = yield self._verify_ports()
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
        if repairs:
            # The repair burst (or its escalation) reprograms the event
            # routes and resolves ready_event when it converges.
            yield from self._wait_converged()
        else:
            fm._program_event_routes()
            yield from self._wait_converged()

        if fm.fence_ownership and not fm.demoted and len(fm.database) > 1:
            state = {"done": False}
            fm._stamp_ownership(
                stats, then=lambda: state.__setitem__("done", True),
            )
            while not state["done"] and not fm.demoted:
                yield self.env.timeout(self.heartbeat_interval / 4)

        stats.finished_at = self.env.now
        stats.devices_found = len(fm.database)
        self._finish_takeover("warm", repairs=repairs)

    def _wait_converged(self):
        """Poll until the FM is quiet and its ready_event resolved."""
        fm = self.fm
        while True:
            ready = fm.ready_event is not None and fm.ready_event.triggered
            if (not fm.busy and ready) or fm.demoted:
                return
            yield self.env.timeout(self.heartbeat_interval / 4)

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
        set of devices that answered nothing.
        """
        fm = self.fm
        records = [
            r for r in fm.database.devices() if r.ingress_port is not None
        ]
        mismatches: Set[tuple] = set()
        dead: Set[int] = set()
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

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "ACTIVE" if self.active else "standby"
        return f"<StandbyManager {self.fm.endpoint.name} {state} " \
               f"[{self.mode}]>"
