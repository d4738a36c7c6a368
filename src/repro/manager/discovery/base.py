"""Discovery: one exploration, paced by one row of limits per algorithm.

The paper's three algorithms (section 3) perform the same *work*:

1. discover the endpoint hosting the FM (a local configuration-space
   read);
2. for every reachable device: read its general information (type,
   DSN, port count) with one PI-4 read; if the DSN is already known the
   device was reached through an alternate path — record the link and
   stop (one packet spent, exactly as in Fig. 2);
3. otherwise read every port's status block (one PI-4 read each) and
   create an exploration target for each active port;
4. finish when no work is outstanding.

They differ only in how many requests may be in flight, which is one
row of :data:`PACING` each:

* Serial Packet — one packet in the fabric at any time (the ASI-SIG
  proposal, Fig. 2);
* Serial Device — devices one at a time, the port reads of the current
  device all at once (the authors' improvement, section 3.2);
* Parallel — propagation-order exploration (Fig. 3, the classic walk of
  Autonet's reconfiguration, paper reference [9]): unconstrained, or
  bounded by ``FabricManager(parallel_window=...)``.  No window short
  of full serialization moves the Fig. 8(b) device-speed knee to
  factor 1/3 in this timing regime; see EXPERIMENTS.md.

A partial manager's burst
(:class:`~repro.manager.discovery.partial.PartialAssimilation`) is the
same walk on Parallel's row, rooted at the ports PI-5 events report.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ...capability import (
    BASELINE_CAP_ID,
    GENERAL_INFO_DWORDS,
    decode_general_info,
    decode_port_status,
    port_block_offset,
)
from ...protocols import pi4
from ...routing.turnpool import Hop, TurnPoolError, build_turn_pool
from ..database import DeviceRecord
from ..timing import PARALLEL, PARTIAL, SERIAL_DEVICE, SERIAL_PACKET


@dataclass
class DiscoveryStats:
    """Everything measured about one discovery run (paper, section 4.1:
    "the amount of management packets and bytes generated and received
    by the FM, and the topology discovery time")."""

    algorithm: str = ""
    trigger: str = "initial"
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    requests_sent: int = 0
    completions_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    duplicates_detected: int = 0
    timeouts: int = 0
    retries: int = 0
    #: Completions that matched no outstanding transaction — answers to
    #: requests already retried to completion, or link-layer replays.
    stale_completions: int = 0
    abandoned_targets: int = 0
    #: Mid-walk failures on an *already-claimed* branch: the request
    #: that died had live evidence behind it (a parent whose port read
    #: said "up", or a device whose record exists), so its subtree may
    #: be silently incomplete.  The FM's restart/repair policy keys off
    #: this (see :meth:`FabricManager._discovery_finished`).
    suspect_subtrees: int = 0
    #: Re-reads that returned a *different* device serial number than
    #: the one previously recorded behind that parent port — a device
    #: was swapped mid-walk.
    serial_mismatches: int = 0
    #: Set when the FM exhausted its restart budget and gave up on
    #: reconciling this run's database with the fabric (the run still
    #: terminated — this flag replaces hanging on the horizon timeout).
    aborted: bool = False
    devices_found: int = 0
    #: FM time of each completion processed — the Fig. 7(a) series, 8
    #: bytes a packet.  Entry ``i`` is packet number
    #: ``completions_received - len(packet_timeline) + i + 1``: ``i + 1``
    #: unless a partial manager's change-fallback carried the completions
    #: of the burst it abandoned into this run's count.
    packet_timeline: array = field(default_factory=lambda: array("d"))

    @property
    def discovery_time(self) -> float:
        """Seconds from discovery start to the last packet processed."""
        if self.started_at is None or self.finished_at is None:
            raise ValueError("discovery has not finished")
        return self.finished_at - self.started_at

    @property
    def total_packets(self) -> int:
        return self.requests_sent + self.completions_received

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def asdict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "trigger": self.trigger,
            "discovery_time": self.discovery_time,
            "devices_found": self.devices_found,
            "requests_sent": self.requests_sent,
            "completions_received": self.completions_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "duplicates_detected": self.duplicates_detected,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "stale_completions": self.stale_completions,
            "abandoned_targets": self.abandoned_targets,
            "suspect_subtrees": self.suspect_subtrees,
            "serial_mismatches": self.serial_mismatches,
            "aborted": self.aborted,
        }


@dataclass
class Target:
    """A device to explore: a route plus how we found it."""

    hops: list
    out_port: Optional[int]  # FM-local egress port; None = loopback
    via_dsn: Optional[int] = None  # parent device
    via_port: Optional[int] = None  # parent port leading here
    #: Open claim span while this target's general read is in flight
    #: (tracing only; ``None`` when tracing is disabled).
    span: object = None


#: Algorithm key -> (most requests outstanding when a general read is
#: sent, most when a port read is sent, in order); ``None`` is no limit.
#: An out-of-order row's limits are ``FabricManager(parallel_window=...)``.
PACING = {
    SERIAL_PACKET: (1, 1, True),
    SERIAL_DEVICE: (1, None, True),
    PARALLEL: (None, None, False),
}
#: A partial burst walks on Parallel's row.
PACING[PARTIAL] = PACING[PARALLEL]


class DiscoveryAlgorithm:
    """One discovery run of the algorithm ``key`` (a :data:`PACING` row).

    A send goes out at once if its limit allows it, and otherwise waits
    in the backlog.  An in-order row's sends all wait there, a new
    device's port reads at the front (Fig. 2's device queue comes after
    the device being read); every completion drains the backlog from
    its front while the head's limit allows.  Parallel's sends skip the
    backlog, so new work takes a freed slot first.
    """

    def __init__(self, fm, key: str):
        self.fm = fm
        self.db = fm.database
        self.env = fm.env
        self.key = key
        self.stats = DiscoveryStats(algorithm=key)
        general, port, self._in_order = PACING[key]
        if not self._in_order:
            window = fm.parallel_window
            if window is not None and window < 1:
                raise ValueError("parallel window must be at least 1")
            general = port = window
        self._general_limit, self._port_limit = general, port
        #: Sends waiting for their limit, as ``(limit, send, args)``; a
        #: row with no limit never waits, and owns no deque.
        self._backlog = (None if general is None and port is None
                         else deque())
        self.done_event = self.env.event()
        #: Set once, when the run has nothing outstanding or deferred.
        self.done = False
        self._outstanding = 0
        #: Top-level span covering this run (tracing only).
        self.span = None
        self._port_spans = {}
        #: DSNs whose subtree may be incompletely explored because a
        #: request into it died mid-walk (retries exhausted on a
        #: claimed branch) or because a re-read found a different
        #: serial number.  The FM inspects this set when the run
        #: finishes and applies its bounded restart/repair policy.
        self.suspect_roots: set = set()

    # -- lifecycle ------------------------------------------------------
    @property
    def span_name(self) -> str:
        """Name of this run's top-level span."""
        return f"discovery:{self.key}"

    def start(self, trigger: str = "initial") -> None:
        """Begin discovery at the FM's own endpoint."""
        self._open(trigger)
        self._send_general(Target(hops=[], out_port=None))

    def _open(self, trigger: str) -> None:
        """Stamp the start of the run and open its span."""
        self.stats.trigger = trigger
        self.stats.started_at = self.env.now
        # Observability is ``self.fm.tracer`` (``None`` = disabled, the
        # zero-overhead path), read on every use rather than
        # snapshotted at construction: the FM builds its initial
        # discovery object before a
        # :class:`~repro.obs.session.TraceSession` is installed on the
        # setup, and the session must still capture that run.
        tracer = self.fm.tracer
        if tracer is not None:
            self._begin_span(tracer, self.env.now)

    def _begin_span(self, tracer, at: float) -> None:
        self.span = tracer.begin(
            self.span_name, "discovery", at, track="fm",
            algorithm=self.key, trigger=self.stats.trigger,
        )

    def trace_from_start(self, tracer) -> None:
        """Open the top-level span of a run in progress that started
        untraced, back-dated to its start (a tracer attached late)."""
        if (not self.done and self.span is None
                and self.stats.started_at is not None):
            self._begin_span(tracer, self.stats.started_at)

    def abort(self) -> None:
        """Abandon the run: it is done, and its span closes marked
        aborted.  The FM cancels what the run has in flight."""
        self._close(aborted=True)

    def _close(self, **outcome) -> None:
        self.done = True
        tracer = self.fm.tracer
        if self.span is not None and tracer is not None:
            tracer.end(self.span, self.env.now, **outcome)

    def _conclude(self) -> None:
        """Stamp the end of the run on its stats and close it."""
        self.stats.finished_at = self.env.now
        self.stats.devices_found = len(self.db)
        self._close(devices=self.stats.devices_found)

    def _maybe_finish(self) -> None:
        """Send what the backlog's limits allow; finish the run once
        nothing is outstanding or waiting."""
        self._drain()
        if self.done or self._outstanding > 0 or self._backlog:
            return
        self._conclude()
        self.done_event.succeed(self.stats)

    # -- request plumbing ---------------------------------------------------
    def _send_general(self, target: Target) -> None:
        """Read a device's six general-information dwords."""
        try:
            pool = build_turn_pool(target.hops)
        except TurnPoolError:
            # The route does not fit the header's turn pool: the device
            # is beyond this FM's reach.  Skipped, and counted.
            self.fm.counters.incr("targets_out_of_reach")
            return
        message = pi4.ReadRequest(
            cap_id=BASELINE_CAP_ID, offset=0, tag=0,
            count=GENERAL_INFO_DWORDS,
        )
        self._outstanding += 1
        tracer = self.fm.tracer
        if tracer is not None:
            target.span = tracer.begin(
                "claim", "discovery", self.env.now,
                parent=self.span, track="discovery",
                via_dsn=target.via_dsn, via_port=target.via_port,
            )
        self.fm.send_request(
            message, pool, target.out_port,
            callback=self._on_general, ctx=target,
            span_parent=target.span,
        )

    def _send_port_read(self, record: DeviceRecord, index: int) -> None:
        """Read one port-status block of a known device."""
        pool = record.route()
        out = record.out_port if record.ingress_port is not None else None
        message = pi4.ReadRequest(
            cap_id=BASELINE_CAP_ID, offset=port_block_offset(index),
            tag=0, count=1,
        )
        self._outstanding += 1
        span = None
        tracer = self.fm.tracer
        if tracer is not None:
            span = tracer.begin(
                "port_read", "discovery", self.env.now,
                parent=self.span, track="discovery",
                dsn=record.dsn, port=index,
            )
            self._port_spans[(record.dsn, index)] = span
        self.fm.send_request(
            message, pool, out,
            callback=self._on_port, ctx=(record, index),
            span_parent=span,
        )

    # -- completion handling ---------------------------------------------------
    def _on_general(self, completion, target: Target) -> None:
        self._outstanding -= 1
        ok = isinstance(completion, pi4.ReadCompletion)
        tracer = self.fm.tracer
        if target.span is not None and tracer is not None:
            tracer.end(target.span, self.env.now,
                       outcome="claimed" if ok else "abandoned")
            target.span = None
        if not ok:
            # Timed out or completion-with-error: the device vanished
            # mid-discovery (or the route went stale).  Abandon.
            self.stats.abandoned_targets += 1
            if target.via_dsn is not None and target.via_dsn in self.db:
                # Retries exhausted on an already-claimed branch: the
                # parent's port read said something live was there, so
                # the fabric changed under us and whatever hangs off
                # this branch is now suspect.
                self.stats.suspect_subtrees += 1
                self.suspect_roots.add(target.via_dsn)
            self._maybe_finish()
            return

        info = decode_general_info(completion.data)
        dsn = info["dsn"]
        arrival = (
            None if completion.arrival_port == pi4.NO_PORT
            else completion.arrival_port
        )

        if target.via_dsn is not None and target.via_dsn in self.db:
            # A re-read through a parent port that already recorded a
            # neighbour must find the *same* device; a different serial
            # number means the device was swapped mid-walk and any
            # state learned through it is suspect.
            known = self.db.device(target.via_dsn).ports.get(
                target.via_port)
            if (known is not None and known.neighbor_dsn is not None
                    and known.neighbor_dsn != dsn):
                self.stats.serial_mismatches += 1
                self.suspect_roots.add(target.via_dsn)

        if dsn in self.db:
            # Reached through an alternate path (Fig. 2 decision box):
            # update connectivity only, one packet spent.
            self.stats.duplicates_detected += 1
            if target.via_dsn is not None:
                self.db.add_link(target.via_dsn, target.via_port, dsn,
                                 arrival)
            self._maybe_finish()
            return

        record = DeviceRecord(
            dsn=dsn,
            type_code=info["type_code"],
            nports=info["nports"],
            fm_capable=info["fm_capable"],
            ingress_port=arrival,
            route_hops=target.hops,
            out_port=target.out_port if target.out_port is not None else 0,
        )
        self.db.add_device(record)
        if target.via_dsn is not None:
            self.db.add_link(target.via_dsn, target.via_port, dsn, arrival)

        # Fig. 2: "read the additional attributes from the device's
        # configuration space" — one read per port block.
        for index in range(record.nports):
            self._pace(self._port_limit, self._send_port_read, record, index)
        if self._in_order:  # the device's ports go before the device queue
            self._backlog.rotate(record.nports)
        self._maybe_finish()

    def _on_port(self, completion, ctx) -> None:
        self._outstanding -= 1
        record, index = ctx
        ok = isinstance(completion, pi4.ReadCompletion)
        tracer = self.fm.tracer
        if tracer is not None:
            span = self._port_spans.pop((record.dsn, index), None)
            if span is not None:
                tracer.end(span, self.env.now,
                           outcome="read" if ok else "abandoned")
        port = record.port(index)
        if not ok:
            port.up = False  # unknowable; treat as inactive
            self.stats.abandoned_targets += 1
            # The device itself was claimed (its general read answered
            # moments ago); losing a port read means the route to it
            # broke mid-walk — everything behind it is suspect.
            self.stats.suspect_subtrees += 1
            self.suspect_roots.add(record.dsn)
        else:
            status = decode_port_status(completion.data[0])
            port.up = status["up"]
            if status["up"] and index != record.ingress_port:
                # "An active port indicates that there is a live device
                # attached to the other end" — explore it.
                hops, out_port = self.db.extend_route(record, index)
                self._pace(self._general_limit, self._send_general,
                           Target(hops=hops, out_port=out_port,
                                  via_dsn=record.dsn, via_port=index))
        self._maybe_finish()

    # -- pacing ---------------------------------------------------------------
    def _pace(self, limit, send, *args) -> None:
        """Call ``send(*args)`` now if the row is out of order and
        ``limit`` allows it; else queue it for :meth:`_drain`."""
        if not self._in_order and (limit is None or self._outstanding < limit):
            send(*args)
        else:
            self._backlog.append((limit, send, args))

    def _drain(self) -> None:
        """Send from the backlog's front while the head's limit allows."""
        backlog = self._backlog
        while backlog:
            limit, send, args = backlog[0]
            if limit is not None and self._outstanding >= limit:
                return
            backlog.popleft()
            send(*args)
