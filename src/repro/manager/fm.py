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
  information (the paper's stated assumption);
* after a discovery it programs every device's event-route capability
  so future PI-5 notifications can reach it;
* it retries requests that time out, so discovery terminates even if a
  device dies mid-discovery.
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
from .timing import PARALLEL, ProcessingTimeModel


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
                 program_event_routes: bool = True,
                 auto_start: bool = True,
                 arrival_clears_timeout: bool = True,
                 parallel_window: Optional[int] = None,
                 max_discovery_restarts: int = 8,
                 restart_backoff: float = 0.0,
                 verify_sample: int = 0,
                 verify_seed: int = 0,
                 epoch: int = 1,
                 fence_ownership: bool = False):
        if not endpoint.fm_capable:
            raise ValueError(f"{endpoint.name} is not FM capable")
        self.endpoint = endpoint
        self.entity = entity
        self.env = endpoint.env
        self.timing = timing or ProcessingTimeModel()
        self.algorithm_key = algorithm
        #: The algorithm whose per-packet FM time is charged (Fig. 4).
        self.cost_key = algorithm
        self.program_event_routes = program_event_routes
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
        self.epoch = epoch
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
        #: Alias of the engine's outstanding map (legacy name; the
        #: partial-assimilation subclass clears it directly).
        self._pending = self.engine.pending
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
        FM busy time (the measured Fig. 4 quantity)."""
        cost = self.timing.fm_time(self.cost_key, len(self.database))
        self.processing_time_total += cost
        self.processing_packets += 1
        return cost

    def mean_processing_time(self) -> float:
        """Average FM time per processed packet so far (Fig. 4)."""
        if self.processing_packets == 0:
            raise RuntimeError("the FM has not processed any packet yet")
        return self.processing_time_total / self.processing_packets

    # -- request layer ------------------------------------------------------
    @property
    def request_timeout(self) -> float:
        """Base (and floor) request timeout of the transaction layer."""
        return self.engine.default_timeout

    @request_timeout.setter
    def request_timeout(self, value: float) -> None:
        self.engine.default_timeout = value
        self.engine.policy.floor = value

    @property
    def max_retries(self) -> int:
        return self.engine.max_retries

    @max_retries.setter
    def max_retries(self, value: int) -> None:
        self.engine.max_retries = value

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
        if self.discovery is not None and not self.discovery.done:
            # The running discovery reads live port state, so it *may*
            # observe this change — unless it already passed through
            # that region.  Defer and re-check when it finishes.
            self.counters.incr("events_during_discovery")
            self._deferred_events.append(event)
            return
        if event.reporter_dsn in self.database:
            record = self.database.device(event.reporter_dsn)
            known = record.ports.get(event.port)
            if known is not None and known.up == event.up:
                self.counters.incr("events_stale")
                return
        self.counters.incr("changes_assimilated")
        trigger = "initial" if not self.history else "change"
        self.start_discovery(trigger=trigger)

    # -- discovery ------------------------------------------------------------
    @property
    def is_discovering(self) -> bool:
        return self.discovery is not None and not self.discovery.done

    @property
    def busy(self) -> bool:
        """Whether a walk that owns the database is in progress: what
        a caller tests before starting another (a manager with more
        kinds of walk than the full discovery extends it)."""
        return self.is_discovering

    def start_discovery(self, trigger: str = "initial",
                        force: bool = False) -> DiscoveryAlgorithm:
        """Discard the database and run a full discovery.

        Refused with ``RuntimeError`` while ``busy`` unless ``force``,
        which aborts the walk in progress first.  Returns the algorithm
        instance; wait on its ``done_event`` for the
        :class:`DiscoveryStats`.
        """
        self._enabled = True
        if self.busy and not force:
            raise RuntimeError("discovery already in progress")
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
        if self.ready_event is None or self.ready_event.triggered:
            # Keep a pending ready_event across immediate restarts so
            # waiters see "ready" only once the fabric is quiescent.
            self.ready_event = self.env.event()
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

    def _finish_ready(self, stats: DiscoveryStats) -> None:
        """Program event routes (or trigger ready immediately)."""
        if self.program_event_routes:
            self._program_event_routes()
        else:
            self.ready_event.succeed(stats)

    # -- bounded restart / repair policy ------------------------------------
    def _resolve_inconsistency(self, suspects: Iterable[int],
                               stats: DiscoveryStats) -> bool:
        """React to a possibly-divergent database after a run.

        Prefers a targeted subtree repair (see the partial-assimilation
        subclass), escalates to a full rediscovery, and gives up once
        ``max_discovery_restarts`` consecutive automatic restarts have
        not produced a clean run.  Returns ``True`` when repair or
        restart was initiated (the caller must not finish the run);
        ``False`` when the budget is exhausted — ``stats.aborted`` is
        set and the caller finishes normally so nothing hangs.
        """
        if self._restart_streak >= self.max_discovery_restarts:
            stats.aborted = True
            self.counters.incr("discovery_aborted")
            return False
        # Repairs and restarts share the budget: every automatic
        # recovery action consumes one slot, so a pathological fabric
        # cannot alternate repair/restart forever.
        self._restart_streak += 1
        suspects = {dsn for dsn in suspects if dsn in self.database}
        if suspects and self._attempt_repair(suspects):
            self.counters.incr("subtree_repairs")
            return True
        self.counters.incr("discovery_restarts")
        self._schedule_restart("restart")
        return True

    def _attempt_repair(self, suspects: set) -> bool:
        """Repair suspect subtrees without a full rediscovery.

        The base FM has no partial machinery — every discovery discards
        the database — so it always escalates; the partial-assimilation
        subclass overrides this with a targeted region re-exploration.
        """
        return False

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
            self._finish_ready(stats)
            return
        self._stamp_ownership(stats)

    def _stamp_ownership(self, stats: DiscoveryStats,
                         attempt: int = 0,
                         then: Optional[Callable[[DiscoveryStats],
                                                 None]] = None) -> None:
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
        finish = then if then is not None else self._finish_ready
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
                finish(stats)
                return
            wstate = {"outstanding": len(need)}

            def settle() -> None:
                wstate["outstanding"] -= 1
                if wstate["outstanding"] == 0:
                    finish(stats)

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
        """Write every device's route back to the FM (PI-4 writes)."""
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
