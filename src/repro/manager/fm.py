"""The fabric manager (FM).

A software entity running on a fabric endpoint (paper, section 2).
This class implements the management behaviour the paper studies:

* it owns the topology database and runs one of the three discovery
  implementations over the fabric;
* it processes every inbound management packet serially, spending the
  algorithm-dependent ``T_FM`` per packet (charged by the hosting
  :class:`~repro.protocols.entity.ManagementEntity`);
* it reacts to PI-5 events by starting the change assimilation process
  — a full rediscovery that discards all previously collected
  information (the paper's stated assumption), or, built with
  ``assimilation="partial"``, a *burst* that explores only the portion
  of the network affected by the change (section 5, future work; see
  :mod:`repro.manager.discovery.partial`);
* after a discovery it programs every device's event-route capability
  so future PI-5 notifications can reach it;
* with ``fence_ownership`` on, it stamps every device's claim
  capability first, and yields to a claim that outranks its own
  (:func:`repro.capability.claim.contest`);
* it retries requests that time out, so discovery terminates even if a
  device dies mid-discovery.

The discovery in progress — a full walk or a burst — is the one
:attr:`FabricManager.discovery` holds; the FM keeps the policy around
it: deferred events, the bounded restart/repair budget, the
convergence guard, fencing and the event routes.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..capability import (
    BASELINE_CAP_ID,
    CLAIM_CAP_ID,
    EVENT_ROUTE_CAP_ID,
    GENERAL_INFO_DWORDS,
    ClaimCapability,
    EventRouteCapability,
    decode_general_info,
)
from ..capability.claim import ADVANCE, YIELD, contest
from ..fabric.endpoint import Endpoint
from ..fabric.packet import PI_DEVICE_MANAGEMENT, PI_EVENT, Packet
from ..protocols import pi4, pi5
from ..protocols.entity import ManagementEntity
from ..protocols.transaction import (
    TimeoutPolicy,
    Transaction,
    TransactionEngine,
)
from ..routing.turnpool import TurnPool
from ..sim.monitor import Counter
from .database import TopologyDatabase
from .discovery import make_algorithm
from .discovery.base import DiscoveryAlgorithm, DiscoveryStats
from .timing import PARALLEL, PARTIAL, ProcessingTimeModel

#: What an FM does with a change (``FabricManager(assimilation=...)``,
#: the ``manager`` value of the experiments): ``"full"`` rediscovers
#: the fabric, ``"partial"`` assimilates it in a burst.
MANAGER_KINDS = ("full", PARTIAL)


def barrier(count: int, each: Callable[[Any, Any], None],
            then: Callable[[], None]) -> Callable[[Any, Any], None]:
    """A callback that joins ``count`` arrivals: ``each(value, ctx)``
    per arrival, then ``then()`` exactly once after the last — at
    once, before this returns, when ``count`` is zero."""
    if count == 0:
        then()

    def arrive(value, ctx=None) -> None:
        nonlocal count
        each(value, ctx)
        count -= 1
        if count == 0:
            then()

    return arrive


class FabricManager:
    """The primary fabric manager, hosted on ``endpoint``."""

    #: Bounded restart/repair policy: at most this many consecutive
    #: automatic recovery actions (suspect subtrees, unassimilated
    #: deferred events, convergence-guard mismatches) before the FM
    #: gives up and surfaces ``aborted`` in the run's stats.  A PI-5
    #: event or an explicit :meth:`start_discovery` resets the streak.
    #: A restart starts at once: the paper's FM starts discovery over.
    max_discovery_restarts = 8

    def __init__(self, endpoint: Endpoint, entity: ManagementEntity,
                 timing: Optional[ProcessingTimeModel] = None,
                 algorithm: str = PARALLEL,
                 request_timeout: float = 1e-3,
                 max_retries: int = 3,
                 auto_start: bool = True,
                 parallel_window: Optional[int] = None,
                 verify_sample: int = 0,
                 verify_seed: int = 0,
                 fence_ownership: bool = False,
                 assimilation: str = "full"):
        if not endpoint.fm_capable:
            raise ValueError(f"{endpoint.name} is not FM capable")
        if assimilation not in MANAGER_KINDS:
            raise ValueError(
                f"unknown manager kind {assimilation!r} (expected one of "
                f"{MANAGER_KINDS})"
            )
        self.endpoint = endpoint
        self.entity = entity
        self.env = endpoint.env
        self.timing = timing or ProcessingTimeModel()
        self.algorithm_key = algorithm
        #: ``"full"`` or ``"partial"`` (see :data:`MANAGER_KINDS`).
        self.assimilation = assimilation
        #: Optional bound on the Parallel algorithm's outstanding
        #: requests (None = unbounded, the paper's Fig. 3).
        self.parallel_window = parallel_window
        #: Post-discovery convergence guard: after a clean run, re-read
        #: the general information of this many discovered devices (a
        #: seeded sample) and trigger repair on any mismatch.  0
        #: disables the guard (default — guard probes cost packets and
        #: would perturb the paper-faithful measurements).
        self.verify_sample = verify_sample
        #: Seed for the guard's sample choice (combined with the run
        #: index, so consecutive discoveries sample different devices).
        self.verify_seed = verify_seed
        #: Consecutive automatic restarts since the last clean
        #: convergence or external trigger.
        self._restart_streak = 0
        #: Whether the FM reacts to port events before any explicit
        #: discovery — with it on, fabric power-up triggers the initial
        #: discovery by itself ("the topology discovery process is
        #: triggered after fabric initialization").
        self._enabled = auto_start
        #: Ownership epoch (the claim-capability generation this FM
        #: stamps when fencing is on).  A promoted standby runs at the
        #: old primary's epoch + 1; see :mod:`repro.manager.failover`.
        self.epoch = 1
        #: Split-brain fencing: after every clean full discovery, read
        #: each device's claim capability and stamp it with this FM's
        #: epoch.  Observing a *newer* epoch means another FM took
        #: over since — this FM demotes itself instead of
        #: reprogramming event routes.  Off by default (fencing costs
        #: packets and would perturb the paper-faithful measurements).
        self.fence_ownership = fence_ownership
        #: Set once this FM fenced itself off (see :meth:`demote`).
        self.demoted = False
        #: Passive observers called with every accepted PI-5 event
        #: (after duplicate suppression, before assimilation).  This is
        #: the control-plane replication tee a standby subscribes
        #: to; an empty list costs nothing and listeners must not
        #: schedule simulation events.
        self.pi5_listeners: List[Callable[[pi5.PortEvent], None]] = []

        #: Optional :class:`repro.obs.span.SpanTracer` (see
        #: :meth:`attach_tracer`).  ``None`` keeps every instrumented
        #: path at a single ``is not None`` test.
        self.tracer = None
        self.database = TopologyDatabase()
        #: The walk in progress or last run: a full discovery, or a
        #: partial FM's burst (:mod:`repro.manager.discovery.partial`).
        self.discovery: Optional[DiscoveryAlgorithm] = None
        #: The timing key each packet is charged at: the configured
        #: algorithm's, or Parallel's while a burst runs.
        self._cost_key = algorithm
        #: Stats of every completed discovery, in order (the Fig. 7(a)
        #: timeline of the newest only, see :meth:`_record`).
        self.history: List[DiscoveryStats] = []
        #: Triggers when the current discovery's event routes are
        #: programmed (or immediately after discovery if disabled).
        self.ready_event = None
        #: Callbacks invoked with the stats of each finished discovery.
        self.on_discovery_complete: List[Callable[[DiscoveryStats], None]] = []
        self.counters = Counter()
        #: Accumulated FM busy time and packet count (Fig. 4 data).
        self.processing_time_total = 0.0
        self.processing_packets = 0

        #: The retrying transaction layer.  Tags are salted with the
        #: endpoint's serial number so concurrent FMs (a primary and
        #: its standby) never collide in the responders' duplicate caches.
        self.engine = TransactionEngine(
            self.env, entity, self.counters,
            max_retries=max_retries,
            default_timeout=request_timeout,
            policy=TimeoutPolicy(
                endpoint.params, self.timing, algorithm,
                floor=request_timeout,
            ),
            tag_salt=endpoint.dsn & 0x7FFF,
            on_transmit=self._on_request_transmitted,
            known_devices=self.database.__len__,
        )
        #: Highest PI-5 sequence number processed per reporter: lossy
        #: fabrics blindly repeat event notifications, and the repeats
        #: must not be double-assimilated.
        self._event_seqs: Dict[int, int] = {}
        #: PI-5 events that arrived while a discovery was running.
        #: They are re-checked against the fresh database when the run
        #: finishes; any not yet reflected trigger one more discovery
        #: (a change in a region the run had already read would
        #: otherwise be lost forever).
        self._deferred_events: List[pi5.PortEvent] = []

        entity.manager = self

    # -- observability -------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Record spans for discoveries, transactions, and restarts.

        The tracer (:class:`repro.obs.span.SpanTracer`) is passive —
        it never schedules events or consumes randomness — so
        attaching one leaves simulation results bit-identical.  Pass
        ``None`` to detach.
        """
        self.tracer = tracer
        self.engine.tracer = tracer
        # An auto-started FM begins its initial discovery during
        # construction, before a trace session can install itself.
        # Open that run's top-level span retroactively so its claim /
        # port-read children don't end up parentless.
        if tracer is not None and self.discovery is not None:
            self.discovery.trace_from_start(tracer)

    # -- cost model (paper Fig. 4) -----------------------------------------
    def packet_cost(self, packet: Packet) -> float:
        """FM time to process one management packet, accumulated as
        FM busy time (the measured Fig. 4 quantity): a burst's packets
        cost what Parallel's do, every other one what the configured
        algorithm's do."""
        cost = self.timing.fm_time(self._cost_key, len(self.database))
        self.processing_time_total += cost
        self.processing_packets += 1
        return cost

    def mean_processing_time(self) -> float:
        """Average FM time per processed packet so far (Fig. 4)."""
        if self.processing_packets == 0:
            raise RuntimeError("the FM has not processed any packet yet")
        return self.processing_time_total / self.processing_packets

    # -- request layer ------------------------------------------------------
    def send_request(self, message, pool: TurnPool,
                     out_port: Optional[int], callback: Callable,
                     ctx: Any = None, retries: Optional[int] = None,
                     timeout: Optional[float] = None,
                     span_parent: Optional[Any] = None) -> int:
        """Send a PI-4 request; ``callback(completion_or_None, ctx)``.

        The completion (or ``None`` after the retries are exhausted) is
        delivered after the FM has been charged its per-packet
        processing time.  ``retries``/``timeout`` override the FM-wide
        defaults (used for cheap liveness probes).  ``span_parent``
        nests the transaction's span under the caller's (tracing only).
        """
        return self.engine.open(
            message, pool, out_port, callback, ctx=ctx,
            retries=retries, timeout=timeout, stats=self._active_stats(),
            span_parent=span_parent,
        )

    def send_all(self, requests: Iterable[Tuple], each: Callable,
                 then: Callable[[], None],
                 span_parent: Optional[Any] = None) -> None:
        """The request barrier: send every ``(message, pool, out_port,
        ctx)`` of ``requests``, call ``each(completion_or_None, ctx)``
        per completion and ``then()`` exactly once after the last (at
        once when there are none).  Requests are materialised and
        counted before the first is sent."""
        requests = list(requests)
        arrive = barrier(len(requests), each, then)
        for message, pool, out_port, ctx in requests:
            self.send_request(message, pool, out_port, arrive, ctx=ctx,
                              span_parent=span_parent)

    def _wire_size(self, packet: Packet) -> int:
        """Bytes ``packet`` takes on the wire: the size a port stamped
        on it under this fabric's parameters, computed only for a
        packet that met no port (a loop-back)."""
        params = self.endpoint.params
        if packet.wire_params is params:
            return packet.wire_size
        return packet.size_bytes(params.framing_overhead, params.pcrc_bytes)

    def _on_request_transmitted(self, entry: Transaction, packet) -> None:
        """Engine hook: per-transmission byte accounting."""
        stats = entry.stats
        if stats is not None:
            stats.requests_sent += 1
            stats.bytes_sent += self._wire_size(packet)

    def note_packet_arrival(self, packet: Packet) -> None:
        """Called by the entity when a management packet is enqueued at
        the FM endpoint (before the FM's serial processing), decoded:
        an undecodable one names no request and clears no timer.  The
        timer is cleared here, at arrival, not once the FM has
        processed the completion: under the Parallel algorithm the FM's
        own backlog on a large fabric outlasts the timeout, and timing
        it would retry requests already answered."""
        message = packet.message
        if message is not None:
            self.engine.note_arrival(message.tag)

    def _active_stats(self) -> Optional[DiscoveryStats]:
        """The stats of the walk or burst in progress, if any."""
        discovery = self.discovery
        if discovery is not None and not discovery.done:
            return discovery.stats
        return None

    # -- inbound management packets ---------------------------------------
    def handle_management_packet(self, packet: Packet,
                                 port) -> None:
        """Called by the entity after charging the FM processing time."""
        if packet.header.pi == PI_EVENT:
            try:
                event = pi5.decode(packet.payload)
            except pi5.Pi5Error:
                self.counters.incr("pi5_decode_errors")
                return
            self.counters.incr("pi5_received")
            if self.tracer is not None:
                self.tracer.instant(
                    "pi5", "pi5", self.env.now, track="fm",
                    reporter=event.reporter_dsn, port=event.port,
                    up=event.up, seq=event.seq,
                )
            if event.seq <= self._event_seqs.get(event.reporter_dsn, 0):
                # A blind retransmission of an event already processed.
                self.counters.incr("pi5_duplicates")
                return
            self._event_seqs[event.reporter_dsn] = event.seq
            for listener in list(self.pi5_listeners):
                listener(event)
            self._handle_event(event)
            return
        if packet.header.pi != PI_DEVICE_MANAGEMENT:
            self.counters.incr("unknown_pi")
            return
        message = packet.message
        if message is None:
            # Handed over by something other than the entity.
            try:
                message = pi4.decode(packet.payload)
            except pi4.Pi4Error:
                self.counters.incr("pi4_decode_errors")
                return
        if message.is_request:
            self.counters.incr("unexpected_requests")
            return
        entry = self.engine.complete(message)
        if entry is None:
            stats = self._active_stats()
            if stats is not None:
                stats.stale_completions += 1
            return
        stats = entry.stats
        if stats is not None:
            stats.completions_received += 1
            stats.bytes_received += self._wire_size(packet)
            # Fig. 7(a): the simulation time at which the FM finished
            # processing each discovery packet.
            stats.packet_timeline.append(self.env.now)
        entry.callback(message, entry.ctx)

    # -- PI-5 events / change assimilation ----------------------------------
    def handle_local_event(self, event: pi5.PortEvent) -> None:
        """Port event on the FM's own endpoint (no packet needed)."""
        self.counters.incr("local_events")
        if self.tracer is not None:
            self.tracer.instant(
                "pi5", "pi5", self.env.now, track="fm",
                reporter=event.reporter_dsn, port=event.port,
                up=event.up, seq=event.seq, local=True,
            )
        for listener in list(self.pi5_listeners):
            listener(event)
        self._handle_event(event)

    def _handle_event(self, event: pi5.PortEvent) -> None:
        if not self._enabled:
            self.counters.incr("events_before_enable")
            return
        # An external change signal: the restart budget guards against
        # *silent* divergence loops, not against real event streams.
        self._restart_streak = 0
        if self.is_discovering:
            # The running discovery reads live port state, so it *may*
            # observe this change — unless it already passed through
            # that region.  Defer and re-check when it finishes.
            self.counters.incr("events_during_discovery")
            self._deferred_events.append(event)
            return
        if self.is_assimilating:
            self.discovery.add(event)
            return
        known = event.reporter_dsn in self.database
        if known and self._event_assimilated(event):
            self.counters.incr("events_stale")
            return
        partial = self.assimilation == "partial"
        if not partial or not self.history:
            self.counters.incr("changes_assimilated")
            # A partial FM labels even its first walk a change.
            trigger = "change" if partial or self.history else "initial"
            self.start_discovery(trigger=trigger)
        elif not known:
            self.counters.incr("partial_fallbacks")
            self.start_discovery(trigger="change")
        else:
            self.counters.incr("changes_assimilated")
            self._begin_burst([event], "change")

    # -- discovery ------------------------------------------------------------
    @property
    def is_discovering(self) -> bool:
        """Whether a full discovery is in progress."""
        return self.busy and self.discovery.key != PARTIAL

    @property
    def is_assimilating(self) -> bool:
        """Whether a partial-assimilation burst is in progress."""
        return self.busy and self.discovery.key == PARTIAL

    @property
    def busy(self) -> bool:
        """Whether a walk that owns the database is in progress — a
        discovery or a burst: what a caller tests before starting
        another."""
        return self.discovery is not None and not self.discovery.done

    def start_discovery(self, trigger: str = "initial",
                        force: bool = False) -> DiscoveryAlgorithm:
        """Discard the database and run a full discovery.

        Refused with ``RuntimeError`` while ``busy`` unless ``force``,
        which aborts the walk in progress first (a burst's completions
        would otherwise land on the database this run clears).  Returns
        the algorithm instance; wait on its ``done_event`` for the
        :class:`DiscoveryStats`.
        """
        self._enabled = True
        if self.busy and not force:
            raise RuntimeError("discovery already in progress")
        self._abandon()
        self.database.clear()
        self._arm_ready()
        algorithm = make_algorithm(self.algorithm_key, self)
        self.discovery = algorithm
        algorithm.done_event.callbacks.append(
            lambda _event: self._discovery_finished(algorithm))
        algorithm.start(trigger=trigger)
        return algorithm

    def _abandon(self) -> None:
        """Abort the walk or burst in progress, if any, and cancel
        what it has in flight."""
        if self.busy:
            self.discovery.abort()
            self._cost_key = self.algorithm_key
            # cancel_all == the historical ``_pending.clear()`` (no
            # callbacks fire) plus closure of the orphaned spans.
            self.engine.cancel_all()

    def _event_assimilated(self, event: pi5.PortEvent) -> bool:
        """Whether the (fresh) database already reflects ``event``."""
        if event.reporter_dsn in self.database:
            record = self.database.device(event.reporter_dsn)
            known = record.ports.get(event.port)
            return known is not None and known.up == event.up
        # Unknown reporter: a down event there is moot (the device is
        # unreachable anyway), but an up event means something appeared
        # that the run missed.
        return not event.up

    def _record(self, stats: DiscoveryStats) -> None:
        """Enter a finished discovery in the history and announce it.

        Every summary field of every run is kept; the per-completion
        timeline only of the newest, or a long-lived FM under churn
        grows by 8 bytes per packet it ever processed.
        """
        if self.history:
            del self.history[-1].packet_timeline[:]
        self.history.append(stats)
        for callback in list(self.on_discovery_complete):
            callback(stats)

    def _discovery_finished(self, walk: DiscoveryAlgorithm) -> None:
        stats = walk.stats
        self._record(stats)
        deferred, self._deferred_events = self._deferred_events, []
        stale_deferred = any(
            not self._event_assimilated(e) for e in deferred
        )
        suspects = set(walk.suspect_roots)
        if stale_deferred or suspects:
            # A change arrived mid-run in a region the run had already
            # covered, or a branch died under the walker: the database
            # may be silently wrong.  Repair or go again — bounded
            # (event routes will be programmed by the final run).
            if self._resolve_inconsistency(suspects, stats):
                return
            # Budget exhausted: terminate with the abort surfaced in
            # the stats instead of looping (or hanging a caller on the
            # horizon timeout).
        elif self.verify_sample > 0 and len(self.database) > 1:
            # The streak resets only once the guard passes — a clean
            # walk with failing guard probes is still divergence.
            self._start_convergence_guard(stats)
            return
        else:
            self._restart_streak = 0
        self._fence_then_finish(stats)

    def _arm_ready(self) -> None:
        """A fresh ``ready_event`` unless one is still pending: it is
        kept across immediate restarts and repair bursts, so waiters
        see "ready" only once the fabric is quiescent."""
        if self.ready_event is None or self.ready_event.triggered:
            self.ready_event = self.env.event()

    # -- bounded restart / repair policy ------------------------------------
    def _resolve_inconsistency(self, suspects: Iterable[int],
                               stats: DiscoveryStats) -> bool:
        """React to a possibly-divergent database after a run.

        Prefers a targeted subtree repair (:meth:`_attempt_repair`),
        escalates to a full rediscovery, and gives up once
        ``max_discovery_restarts`` consecutive automatic restarts have
        not produced a clean run.  Returns ``True`` when repair or
        restart was initiated (the caller must not finish the run);
        ``False`` when the budget is exhausted — ``stats.aborted`` is
        set and the caller finishes normally so nothing hangs.
        """
        if not self._spend_restart(stats):
            return False
        suspects = {dsn for dsn in suspects if dsn in self.database}
        if suspects and self._attempt_repair(suspects):
            self.counters.incr("subtree_repairs")
            return True
        self.counters.incr("discovery_restarts")
        self.start_discovery(trigger="restart")
        return True

    def _spend_restart(self, stats: DiscoveryStats) -> bool:
        """Take one slot of the restart budget for an automatic
        recovery action; ``False``, with the abort surfaced in
        ``stats``, once it is exhausted.  Repairs and restarts share
        the budget, so a pathological fabric cannot alternate them
        forever."""
        if self._restart_streak >= self.max_discovery_restarts:
            stats.aborted = True
            self.counters.incr("discovery_aborted")
            return False
        self._restart_streak += 1
        return True

    def _attempt_repair(self, suspects: set) -> bool:
        """Repair suspect subtrees without a full rediscovery.

        A full FM has no such machinery and always escalates.  A
        partial FM synthesizes an *up* event for every recorded-up,
        non-ingress port of each suspect and runs them as one burst:
        the confirm read re-checks the reporter's liveness and port
        state, the region exploration re-walks whatever hangs behind
        it, and the fallback path escalates to a full rediscovery if
        the reporter itself is gone.
        """
        if self.assimilation == "full" or self.busy:
            return False
        events = []
        for dsn in sorted(suspects):
            record = self.database.device(dsn)
            for index, port in sorted(record.ports.items()):
                if port.up and index != record.ingress_port:
                    events.append(pi5.PortEvent(
                        reporter_dsn=dsn, port=index, up=True, seq=0,
                    ))
        if not events:
            return False
        self._begin_burst(events, "repair")
        return True

    # -- partial assimilation: the burst ---------------------------------------
    def _begin_burst(self, events: List[pi5.PortEvent], trigger: str) -> None:
        """Run a burst that confirms ``events`` one after another."""
        # Imported by the first burst, not with this module: a full FM
        # never needs it, and a discovery's imports are pinned
        # (tests/test_import_budget.py).
        from .discovery.partial import PartialAssimilation

        self._cost_key = PARALLEL
        burst = PartialAssimilation(self, events, self._finish_burst,
                                    self._abort_burst_to_full)
        self.discovery = burst
        burst.start(trigger)

    def _finish_burst(self) -> None:
        self._cost_key = self.algorithm_key
        burst = self.discovery
        stats = burst.stats
        self._record(stats)
        if burst.suspect_roots:
            # Mid-walk failures inside a region leave the same silent
            # holes a full walk can suffer.
            if self._resolve_inconsistency(burst.suspect_roots, stats):
                # A follow-up repair burst or full rediscovery will
                # program the event routes once it converges.
                return
        else:
            self._restart_streak = 0
        # Reprogram event routes: pruning/exploration may have changed
        # them for part of the fabric.  (Writes are idempotent.)
        self._arm_ready()
        self._program_event_routes()

    def _abort_burst_to_full(self) -> None:
        """Give up on partial assimilation; run a full discovery."""
        stats = self.discovery.stats
        self._abandon()
        if stats.trigger == "repair":
            # A failed *repair* escalation is an automatic recovery
            # action like any other: past the budget, surface the
            # abort instead of launching yet another full walk.
            if not self._spend_restart(stats):
                stats.finished_at = self.env.now
                stats.devices_found = len(self.database)
                self._record(stats)
                self._arm_ready()
                self._program_event_routes()
                return
            self.counters.incr("discovery_restarts")
        full = self.start_discovery(trigger="change-fallback", force=True)
        # Carry the packets already spent into the full run's ledger.
        full.stats.requests_sent += stats.requests_sent
        full.stats.completions_received += stats.completions_received
        full.stats.bytes_sent += stats.bytes_sent
        full.stats.bytes_received += stats.bytes_received
        full.stats.started_at = stats.started_at

    # -- post-discovery convergence guard -----------------------------------
    def _start_convergence_guard(self, stats: DiscoveryStats) -> None:
        """Re-read a seeded sample of discovered devices.

        A clean-looking run can still be stale if a change landed in a
        region the walk had already covered *and* its PI-5 event was
        lost.  The guard re-reads the general information of
        ``verify_sample`` devices; a timeout or a serial-number
        mismatch marks the device suspect and triggers the bounded
        restart/repair policy.
        """
        candidates = sorted(
            record.dsn for record in self.database.devices()
            if record.ingress_port is not None
        )
        count = min(self.verify_sample, len(candidates))
        if count == 0:
            self._fence_then_finish(stats)
            return
        rng = random.Random((self.verify_seed << 16) ^ len(self.history))
        sample = rng.sample(candidates, count)
        self.counters.incr("guard_probes", count)
        mismatched: set = set()

        def on_reread(completion, dsn: int) -> None:
            ok = isinstance(completion, pi4.ReadCompletion)
            if ok:
                info = decode_general_info(list(completion.data))
                ok = info["dsn"] == dsn
            if not ok:
                mismatched.add(dsn)

        def request(dsn: int):
            record = self.database.device(dsn)
            message = pi4.ReadRequest(
                cap_id=BASELINE_CAP_ID, offset=0, tag=0,
                count=GENERAL_INFO_DWORDS,
            )
            return message, record.route(), record.out_port, dsn

        self.send_all(map(request, sample), on_reread,
                      lambda: self._guard_settled(stats, mismatched))

    def _guard_settled(self, stats: DiscoveryStats,
                       mismatched: set) -> None:
        if not mismatched:
            self._restart_streak = 0
            self._fence_then_finish(stats)
            return
        self.counters.incr("guard_mismatches", len(mismatched))
        if not self._resolve_inconsistency(mismatched, stats):
            self._fence_then_finish(stats)

    # -- ownership fencing ----------------------------------------------------
    def demote(self, stats: Optional[DiscoveryStats] = None,
               reason: str = "fenced") -> None:
        """Fence this FM off: it stops acting as a manager for good.

        Called when the FM observes a claim from a newer ownership
        epoch (a standby took over while it was gone — the classic
        resurrected-old-primary case) or loses a same-epoch duel to a
        higher-ranked candidate.  Outstanding transactions are
        cancelled, further PI-5 events are ignored, and a pending
        ``ready_event`` is resolved so waiters do not hang.  A demotion
        mid-discovery abandons the walk.  Idempotent.
        """
        if self.demoted:
            return
        self.demoted = True
        self._enabled = False
        self.counters.incr("fm_demotions")
        if self.tracer is not None:
            self.tracer.instant(
                "demoted", "failover", self.env.now, track="fm",
                reason=reason, epoch=self.epoch,
            )
        self._abandon()
        self.engine.cancel_all()  # the fencing pass's, outside a walk
        self._deferred_events.clear()
        ready = self.ready_event
        if ready is not None and not ready.triggered:
            fallback = self.history[-1] if self.history else None
            ready.succeed(stats if stats is not None else fallback)

    def _fence_then_finish(self, stats: DiscoveryStats) -> None:
        """Run the ownership-fencing pass before declaring ready."""
        if self.demoted:
            return
        if (not self.fence_ownership or stats.aborted
                or len(self.database) <= 1):
            self._program_event_routes()
            return
        self._stamp_ownership(stats)

    def _stamp_ownership(self, stats: DiscoveryStats,
                         attempt: int = 0,
                         then: Optional[Callable[[], None]] = None) -> None:
        """Re-read every device's claim, then stamp our epoch.

        Two phases, on purpose: *all* claims are read before *any* is
        written, so a resurrected old primary discovers it was deposed
        (some device carries a newer generation) before it can clobber
        a single claim of the new primary.  The claim order
        (:func:`~repro.capability.claim.contest`) then decides: a claim
        that outranks ours demotes this FM; a lower rival of our own
        generation makes us advance one epoch and re-stamp, which
        overwrites its claims everywhere.  A write that loses a race to
        a claim of our generation is re-read once the writes are in,
        and the same order decides.
        """
        finish = then if then is not None else self._program_event_routes
        token = object()
        self._fence_token = token
        self.counters.incr("fence_passes")
        me = self.endpoint.dsn
        observed: Dict[int, Optional[Tuple[int, int]]] = {}
        refused: Dict[int, Optional[Tuple[int, int]]] = {}

        def current() -> bool:
            # A pass that was superseded (or whose FM was demoted)
            # while its requests were in flight is abandoned.
            return self._fence_token is token and not self.demoted

        def to_each(dsns: Iterable[int], message: Callable[[], Any]):
            for dsn in dsns:
                record = self.database.device(dsn)
                yield message(), record.route(), record.out_port, dsn

        def read(dsns: Iterable[int], into: dict,
                 after: Callable[[], None]) -> None:
            def on_read(completion, dsn: int) -> None:
                into[dsn] = (ClaimCapability.decode(completion.data)
                             if isinstance(completion, pi4.ReadCompletion)
                             else None)

            self.send_all(to_each(dsns, lambda: pi4.ReadRequest(
                cap_id=CLAIM_CAP_ID, offset=0, tag=0, count=3)),
                on_read, after)

        def judge(claims: dict, proceed: Callable[[], None],
                  deposed: bool) -> None:
            if not current():
                return
            verdict = contest(claims.values(), me, self.epoch)
            if verdict == YIELD:
                if deposed:
                    self.counters.incr("fence_deposed_observations")
                self.demote(stats)
            elif verdict == ADVANCE and attempt < 2:
                self.epoch += 1
                self.counters.incr("fence_epoch_bumps")
                self._stamp_ownership(stats, attempt + 1, then=then)
            else:
                proceed()

        def on_write(completion, dsn: int) -> None:
            if not current():
                return
            if completion is None:
                self.counters.incr("fence_write_failures")
            elif completion.status == pi4.STATUS_CONFLICT:
                self.counters.incr("fence_conflicts")
                refused[dsn] = None
            else:
                self.counters.incr("devices_fenced")

        def written() -> None:
            if current():
                read(list(refused), refused,
                     lambda: judge(refused, finish, deposed=False))

        def write() -> None:
            values = tuple(ClaimCapability.encode(me, self.epoch))
            need = [dsn for dsn in sorted(observed)
                    if observed[dsn] != (me, self.epoch)]
            self.send_all(to_each(need, lambda: pi4.WriteRequest(
                cap_id=CLAIM_CAP_ID, offset=0, tag=0, data=values)),
                on_write, written)

        read([r.dsn for r in self.database.devices()
              if r.ingress_port is not None], observed,
             lambda: judge(observed, write, deposed=True))

    def _program_event_routes(self) -> None:
        """Write every device's route back to the FM (PI-4 writes);
        ``ready_event`` fires once they are all answered."""
        ready = self.ready_event
        records = [
            r for r in self.database.devices() if r.ingress_port is not None
        ]
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "route_distribution", "routes", self.env.now,
                track="fm", devices=len(records),
            )

        def request(record):
            pool, out_port = self.database.route_to_fm(record)
            values = EventRouteCapability.encode(
                pool.pool, pool.bits, out_port
            )
            message = pi4.WriteRequest(
                cap_id=EVENT_ROUTE_CAP_ID, offset=0, tag=0,
                data=tuple(values),
            )
            return message, record.route(), record.out_port, None

        def on_write_done(completion, _ctx) -> None:
            if completion is None:
                self.counters.incr("event_route_write_failures")
            else:
                self.counters.incr("event_routes_programmed")

        def finish(_event) -> None:
            if span is not None:
                self.tracer.end(span, self.env.now)
            if not ready.triggered:
                ready.succeed(self.history[-1] if self.history else None)

        # One event hop between the last completion and ``ready``, as
        # waiters have always seen it: ``ready`` keeps its place among
        # whatever else is due at that instant.
        done = self.env.event()
        done.callbacks.append(finish)
        self.send_all(map(request, records), on_write_done, done.succeed,
                      span_parent=span)

    # -- views -----------------------------------------------------------------
    def last_stats(self) -> DiscoveryStats:
        """Stats of the most recent completed discovery."""
        if not self.history:
            raise RuntimeError("no discovery has completed yet")
        return self.history[-1]
