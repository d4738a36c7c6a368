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
  "Partial assimilation" below);
* after a discovery it programs every device's event-route capability
  so future PI-5 notifications can reach it;
* it retries requests that time out, so discovery terminates even if a
  device dies mid-discovery.

Partial assimilation
--------------------
"Another possibility is to explore only the portion of the network
affected by the change [2], instead of the entire fabric" (section 5;
reference [2] is the authors' InfiniBand subnet-discovery study).  A
partial FM keeps the database across changes.  Its initial discovery
runs the configured full algorithm; on a later PI-5 event it:

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
in the FM history (algorithm ``"partial"``), so its cost is directly
comparable to one full rediscovery; its packets cost the FM what
Parallel's do.  Events naming unknown reporters, and bursts whose
reporter has vanished, fall back to a full rediscovery.  The same
machinery repairs suspect subtrees (:meth:`FabricManager._attempt_repair`).
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
    decode_port_status,
    port_block_offset,
)
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
from .database import DatabaseError, TopologyDatabase
from .discovery import make_algorithm
from .discovery.base import DiscoveryAlgorithm, DiscoveryStats, Target
from .discovery.parallel import ParallelDiscovery
from .timing import PARALLEL, ProcessingTimeModel

#: What an FM does with a change (``FabricManager(assimilation=...)``,
#: the ``manager`` value of the experiments): ``"full"`` rediscovers
#: the fabric, ``"partial"`` assimilates it in a burst.
MANAGER_KINDS = ("full", "partial")

#: Algorithm label of a partial-assimilation burst in the FM history.
PARTIAL = "partial"


class DiscoveryAborted(RuntimeError):
    """The FM exhausted its restart budget without converging.

    The discovery still *terminated* — its stats carry
    ``aborted=True`` — so nothing hangs on the horizon timeout; this
    exception exists for callers that want budget exhaustion to be
    loud (see :func:`repro.experiments.churn.run_until_quiescent`).
    """


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

    def __init__(self, endpoint: Endpoint, entity: ManagementEntity,
                 timing: Optional[ProcessingTimeModel] = None,
                 algorithm: str = PARALLEL,
                 request_timeout: float = 1e-3,
                 max_retries: int = 3,
                 auto_start: bool = True,
                 arrival_clears_timeout: bool = True,
                 parallel_window: Optional[int] = None,
                 max_discovery_restarts: int = 8,
                 restart_backoff: float = 0.0,
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
        #: Whether a completion reaching the FM endpoint clears its
        #: request timer even while it waits in the FM's serial
        #: processing queue.  Disabling this reproduces a retry storm
        #: under the Parallel algorithm on large fabrics (the FM's own
        #: backlog exceeds the timeout) — kept as an ablation switch.
        self.arrival_clears_timeout = arrival_clears_timeout
        #: Optional bound on the Parallel algorithm's outstanding
        #: requests (None = unbounded, the paper's Fig. 3).
        self.parallel_window = parallel_window
        #: Bounded restart/repair policy: at most this many consecutive
        #: automatic restarts (suspect subtrees, unassimilated deferred
        #: events, convergence-guard mismatches) before the FM gives up
        #: and surfaces ``aborted`` in the run's stats.  A PI-5 event
        #: or an explicit :meth:`start_discovery` resets the streak.
        self.max_discovery_restarts = max_discovery_restarts
        #: Base delay before an automatic restart; doubles with each
        #: consecutive restart (0 = restart immediately, the historical
        #: behaviour).
        self.restart_backoff = restart_backoff
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
        #: old primary's epoch + 1; see :mod:`repro.manager.election`.
        self.epoch = 1
        #: Split-brain fencing: after every clean full discovery, read
        #: each device's claim capability and stamp it with this FM's
        #: epoch.  Observing a *newer* epoch means a later election was
        #: won by someone else — this FM demotes itself instead of
        #: reprogramming event routes.  Off by default (fencing costs
        #: packets and would perturb the paper-faithful measurements).
        self.fence_ownership = fence_ownership
        #: Set once this FM fenced itself off (see :meth:`demote`).
        self.demoted = False
        #: Passive observers called with every accepted PI-5 event
        #: (after duplicate suppression, before assimilation).  This is
        #: the control-plane replication tee a warm standby subscribes
        #: to; an empty list costs nothing and listeners must not
        #: schedule simulation events.
        self.pi5_listeners: List[Callable[[pi5.PortEvent], None]] = []

        #: Optional :class:`repro.obs.span.SpanTracer` (see
        #: :meth:`attach_tracer`).  ``None`` keeps every instrumented
        #: path at a single ``is not None`` test.
        self.tracer = None
        self.database = TopologyDatabase()
        self.discovery: Optional[DiscoveryAlgorithm] = None
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
        #: endpoint's serial number so concurrent FMs (failover,
        #: election) never collide in the responders' duplicate caches.
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

        # -- the partial-assimilation burst (idle on a full FM) ------------
        #: Stats of the burst in progress; ``None`` between bursts.
        self._burst_stats: Optional[DiscoveryStats] = None
        #: Events the burst has still to confirm, in order (a list: a
        #: full FM holds no deque).
        self._event_queue: List[pi5.PortEvent] = []
        #: ``(reporter_dsn, port)`` pairs confirmed (or queued) in the
        #: current burst, synthesized repair events included.
        self._burst_seen: set = set()
        #: Suspect roots found by this burst's region explorations; fed
        #: to the bounded restart/repair policy when the burst finishes.
        self._burst_suspects: set = set()
        #: Open span covering the current burst (tracing only; region
        #: explorations share it instead of opening their own).
        self._burst_span = None
        #: The region exploration in flight, if any.
        self._region: Optional[ParallelDiscovery] = None

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
        discovery = self.discovery
        if (tracer is not None and discovery is not None
                and not discovery.done and discovery.span is None
                and discovery.stats.started_at is not None):
            discovery.span = tracer.begin(
                f"discovery:{discovery.key}", "discovery",
                discovery.stats.started_at, track="fm",
                algorithm=discovery.key,
                trigger=discovery.stats.trigger,
            )

    # -- cost model (paper Fig. 4) -----------------------------------------
    def packet_cost(self, packet: Packet) -> float:
        """FM time to process one management packet, accumulated as
        FM busy time (the measured Fig. 4 quantity): a burst's packets
        cost what Parallel's do, every other one what the configured
        algorithm's do."""
        key = self.algorithm_key if self._burst_stats is None else PARALLEL
        cost = self.timing.fm_time(key, len(self.database))
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
        an undecodable one names no request and clears no timer."""
        message = packet.message
        if message is not None and self.arrival_clears_timeout:
            self.engine.note_arrival(message.tag)

    def _active_stats(self) -> Optional[DiscoveryStats]:
        """The stats of the walk or burst in progress (never both)."""
        discovery = self.discovery
        if discovery is not None and not discovery.done:
            return discovery.stats
        return self._burst_stats

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
        if self.discovery is not None and not self.discovery.done:
            # The running discovery reads live port state, so it *may*
            # observe this change — unless it already passed through
            # that region.  Defer and re-check when it finishes.
            self.counters.incr("events_during_discovery")
            self._deferred_events.append(event)
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
        return self.discovery is not None and not self.discovery.done

    @property
    def is_assimilating(self) -> bool:
        """Whether a partial-assimilation burst is in progress."""
        return self._burst_stats is not None

    @property
    def busy(self) -> bool:
        """Whether a walk that owns the database is in progress — a
        discovery or a burst: what a caller tests before starting
        another."""
        return self.is_discovering or self._burst_stats is not None

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
        if self._burst_stats is not None:
            self._drop_burst()
        if self.is_discovering:
            old = self.discovery
            if (self.tracer is not None and old is not None
                    and old.span is not None and old._span_owned):
                self.tracer.end(old.span, self.env.now, aborted=True)
                old.span = None
            # cancel_all == the historical ``_pending.clear()`` (no
            # callbacks fire) plus closure of the orphaned spans.
            self.engine.cancel_all()
        self.database.clear()
        self._arm_ready()
        algorithm = make_algorithm(self.algorithm_key, self)
        self.discovery = algorithm
        algorithm.done_event.callbacks.append(self._discovery_finished)
        algorithm.start(trigger=trigger)
        return algorithm

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

    def _discovery_finished(self, event) -> None:
        stats: DiscoveryStats = event.value
        self._record(stats)
        deferred, self._deferred_events = self._deferred_events, []
        stale_deferred = any(
            not self._event_assimilated(e) for e in deferred
        )
        suspects = (
            set(self.discovery.suspect_roots)
            if self.discovery is not None else set()
        )
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
        self._schedule_restart("restart")
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
        """Open a burst that confirms ``events`` one after another."""
        self._burst_seen = {(e.reporter_dsn, e.port) for e in events}
        self._event_queue.extend(events)
        self._burst_stats = DiscoveryStats(
            algorithm=PARTIAL, trigger=trigger, started_at=self.env.now,
        )
        if self.tracer is not None:
            name = "assimilation" if trigger == "change" else trigger
            self._burst_span = self.tracer.begin(
                f"{name}:partial", "discovery", self.env.now,
                track="fm", algorithm=PARTIAL, trigger=trigger,
            )
        self._next_event()

    def _next_event(self) -> None:
        queue = self._event_queue
        while queue and queue[0].reporter_dsn not in self.database:
            # The reporter itself was pruned by an earlier step of this
            # burst; nothing left to confirm there.
            queue.pop(0)
        if not queue:
            self._finish_burst()
            return
        event = queue.pop(0)
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
        if not isinstance(completion, pi4.ReadCompletion):
            # The reporter itself is unreachable: the change is bigger
            # than the event suggests.  Full rediscovery.
            self.counters.incr("partial_fallbacks")
            self._abort_burst_to_full()
        elif decode_port_status(completion.data[0])["up"]:
            self._assimilate_up(event, record)
        else:
            self._assimilate_down(event, record)

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
            from ..routing.paths import PathError, db_route

            try:
                pool, out_port = db_route(
                    self.database, self.endpoint.dsn, suspect
                )
            except PathError:
                # No alternate route: the suspect region hangs off the
                # failed link and pruning below removes it.
                pool = None
            if pool is not None:
                probe = pi4.ReadRequest(cap_id=0, offset=0, tag=0, count=1)
                self.send_request(
                    probe, pool, out_port,
                    callback=self._on_liveness_probe, ctx=suspect,
                    retries=0, span_parent=self._burst_span,
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
        self.database.prune_unreachable(self.endpoint.dsn)
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
        # A propagation-order exploration rooted at the reported port,
        # aggregating into the burst's stats; its claim/port-read spans
        # nest under the burst's span, which the burst closes.
        region = ParallelDiscovery(self)
        region.stats = self._burst_stats
        region.span = self._burst_span
        region._span_owned = False
        region.done_event.callbacks.append(self._region_done)
        self._region = region
        region._send_general(Target(hops=hops, out_port=out_port,
                                    via_dsn=record.dsn, via_port=event.port))
        region._maybe_finish()  # the target may have been out of reach

    def _region_done(self, _event) -> None:
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
        self._arm_ready()
        self._program_event_routes()

    def _drop_burst(self) -> DiscoveryStats:
        """Forget the burst in progress and whatever it has in flight;
        returns its ledger."""
        self._event_queue.clear()
        self._burst_suspects = set()
        stats, self._burst_stats = self._burst_stats, None
        self._region = None
        if self._burst_span is not None and self.tracer is not None:
            self.tracer.end(self._burst_span, self.env.now,
                            aborted_to_full=True)
        self._burst_span = None
        self.engine.cancel_all()
        return stats

    def _abort_burst_to_full(self) -> None:
        """Give up on partial assimilation; run a full discovery."""
        stats = self._drop_burst()
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

    def _schedule_restart(self, trigger: str) -> None:
        """Start the next automatic rediscovery, after optional backoff."""
        if self.restart_backoff <= 0:
            self.start_discovery(trigger=trigger)
            return
        delay = self.restart_backoff * (2 ** (self._restart_streak - 1))
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "backoff", "restart", self.env.now, track="fm",
                trigger=trigger, streak=self._restart_streak,
            )

        def fire() -> None:
            # A PI-5 event may have kicked off a discovery during the
            # backoff window; do not stack a second one.
            superseded = self.is_discovering or not self._enabled
            if span is not None:
                self.tracer.end(span, self.env.now, superseded=superseded)
            if superseded:
                return
            self.start_discovery(trigger=trigger)

        self.env.call_later(delay, fire)

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
        epoch (it lost an election round it never saw — the classic
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
        self.engine.cancel_all()
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
        """Serially re-read every device's claim, then stamp our epoch.

        Two phases, on purpose: *all* claims are read before *any* is
        written, so a resurrected old primary discovers it was deposed
        (some device carries a newer generation) before it can clobber
        a single claim of the new primary.  A same-epoch foreign claim
        is a duel: the election tie-break (higher DSN wins) decides —
        the loser demotes, the winner advances one epoch (an implicit
        new election round) and re-stamps, which overwrites the loser's
        claims everywhere.
        """
        finish = then if then is not None else self._program_event_routes
        records = [
            r for r in self.database.devices() if r.ingress_port is not None
        ]
        token = object()
        self._fence_token = token
        self.counters.incr("fence_passes")
        observed: Dict[int, Optional[Tuple[int, int]]] = {}
        me = self.endpoint.dsn

        def claim_of(completion) -> Optional[Tuple[int, int]]:
            if isinstance(completion, pi4.ReadCompletion):
                return ClaimCapability.decode(completion.data)
            return None

        def on_read(completion, dsn: int) -> None:
            observed[dsn] = claim_of(completion)

        def write_phase() -> None:
            # A pass that was superseded (or whose FM was demoted)
            # while its reads were in flight is abandoned.
            if self._fence_token is not token or self.demoted:
                return
            override = False
            for dsn in sorted(observed):
                claim = observed[dsn]
                if claim is None:
                    continue
                owner, generation = claim
                if generation > self.epoch or (
                        generation == self.epoch and owner > me):
                    self.counters.incr("fence_deposed_observations")
                    self.demote(stats)
                    return
                if generation == self.epoch and owner < me:
                    override = True
            if override and attempt < 2:
                # We outrank the same-epoch claimant: advance an epoch
                # and re-stamp — the new generation overwrites theirs.
                self.epoch += 1
                self.counters.incr("fence_epoch_bumps")
                self._stamp_ownership(stats, attempt + 1, then=then)
                return
            need = [
                dsn for dsn in sorted(observed)
                if observed[dsn] != (me, self.epoch)
            ]
            if not need:
                finish()
                return
            wstate = {"outstanding": len(need)}

            def settle() -> None:
                wstate["outstanding"] -= 1
                if wstate["outstanding"] == 0:
                    finish()

            def on_conflict_read(completion, dsn: int) -> None:
                if self._fence_token is not token or self.demoted:
                    return
                claim = claim_of(completion)
                if claim is not None:
                    owner, generation = claim
                    if generation > self.epoch or (
                            generation == self.epoch and owner > me):
                        self.demote(stats)
                        return
                settle()

            def on_write(completion, dsn: int) -> None:
                if self._fence_token is not token or self.demoted:
                    return
                if completion is None:
                    self.counters.incr("fence_write_failures")
                elif completion.status == pi4.STATUS_CONFLICT:
                    # Lost a same-epoch write race: a serial re-read
                    # tells us to whom, and the tie-break decides.
                    self.counters.incr("fence_conflicts")
                    record = self.database.device(dsn)
                    self.send_request(
                        pi4.ReadRequest(cap_id=CLAIM_CAP_ID, offset=0,
                                        tag=0, count=3),
                        record.route(), record.out_port,
                        callback=on_conflict_read, ctx=dsn,
                    )
                    return
                else:
                    self.counters.incr("devices_fenced")
                settle()

            values = tuple(ClaimCapability.encode(me, self.epoch))
            for dsn in need:
                record = self.database.device(dsn)
                self.send_request(
                    pi4.WriteRequest(cap_id=CLAIM_CAP_ID, offset=0,
                                     tag=0, data=values),
                    record.route(), record.out_port,
                    callback=on_write, ctx=dsn,
                )

        self.send_all(
            ((pi4.ReadRequest(cap_id=CLAIM_CAP_ID, offset=0, tag=0,
                              count=3),
              record.route(), record.out_port, record.dsn)
             for record in records),
            on_read, write_phase,
        )

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

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "discovering" if self.is_discovering else "idle"
        return (
            f"<FabricManager on {self.endpoint.name} "
            f"[{self.algorithm_key}] {state}, "
            f"{len(self.database)} devices known>"
        )
