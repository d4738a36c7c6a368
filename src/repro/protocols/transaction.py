"""Retrying PI-4 transaction engine.

The paper's discovery processes assume a perfect channel: every PI-4
read and PI-5 event survives the fabric.  With the link error model
(:mod:`repro.fabric.phy`) enabled, management packets are corrupted or
lost in flight, so requests need end-to-end recovery — the same reason
real topology-discovery protocols (CDP/LLDP) are built around periodic
retransmission and holddown timers.

This module owns the requester side of that recovery:

* **Transaction IDs** — every outstanding request gets a unique tag
  (the PI-4 ``tag`` dword).  Tags are salted per requester so that two
  fabric managers alive at once (a primary and its standby) never
  reuse each other's tags, which would defeat duplicate suppression at
  the responders.
* **Adaptive timeouts** — :class:`TimeoutPolicy` derives a per-request
  timeout from the route length encoded in the turn pool and the
  Fig. 4 processing-time model, floored at the requester's configured
  timeout so it can only ever *raise* the patience (a shorter derived
  value would cause spurious retries on backlogged fabrics).
* **Bounded retries with exponential backoff** — each retransmission
  of a policy-timed request doubles the next period, so a congested
  fabric is not hammered at a fixed cadence.  Requests with an
  explicitly chosen timeout keep a fixed cadence (they are liveness
  probes whose give-up time the caller computed).
* **Timers that almost never fire** — the Parallel algorithm keeps
  hundreds of reads outstanding, and nearly every retry timer would
  pop to find its transaction closed.  The engine keeps one FIFO of
  ``(deadline, reserved seq, tag)`` per distinct timeout period: within
  a period the deadlines already come in heap order, so only the head
  is a heap entry.  When it fires, the entries behind it whose
  transaction has closed or arrived are dropped (their timers would
  have done nothing) and the next live one is pushed into the heap
  slot its eager timer would have held.  The last entry is never
  dropped: while a timer is due the heap is not empty, so whoever asks
  ``env.peek()`` whether the simulation has gone idle hears what the
  eager timers told it, and a bare ``env.run()`` stops at the same
  instant.  A drained FIFO is deleted.
  The next entry is pushed first, live or not, when it falls due at
  the very instant the head fires and the head acts (or anything else
  is due then): its eager timer would stand on the heap while those
  handlers run, and ``env.quiet()`` must see it.

The responder side — duplicate-request suppression — lives in
:class:`repro.protocols.entity.ManagementEntity`, which caches served
completions by tag and replays them without re-executing the
configuration-space access.  The two sides share the
:class:`Transaction`: each copy of a request carries it to the device,
which counts the copies it answers, and the engine marks it closed.
Once it is closed and every copy sent has been answered, no copy can
still arrive, so the device lets the stored completion go.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Dict, Optional

from ..routing.turnpool import TurnPool, turn_width

#: Default fabric round-trip timeout (seconds).  Generous compared to
#: the microsecond-scale round trips of the modeled fabric.
DEFAULT_TIMEOUT = 1e-3

#: Default number of retransmissions before a request is abandoned.
DEFAULT_MAX_RETRIES = 3

#: Backoff multiplier applied to the period of policy-timed requests
#: after every retransmission.
DEFAULT_BACKOFF = 2.0

#: Safety margin multiplying the estimated round trip.
DEFAULT_SAFETY = 8.0

#: Conservative wire-size estimate (bytes) for one management packet;
#: covers the largest PI-4 completion plus framing and PCRC.
MGMT_PACKET_ESTIMATE = 64

#: Tags are a 32-bit PI-4 field; the salt occupies the top half so a
#: requester has the bottom 16 bits (65k outstanding-ever requests)
#: before colliding with its own salt space.
TAG_SALT_SHIFT = 16


@dataclass(slots=True)
class Transaction:
    """One outstanding request awaiting its completion."""

    #: The number the request travels under (the caller's message
    #: keeps whatever tag it was built with; it is packed under this).
    tag: int
    message: Any
    pool: TurnPool
    out_port: Optional[int]
    callback: Callable
    ctx: Any
    retries_left: int
    stats: Optional[Any]
    #: Current timeout period (grows by ``backoff`` per retry).
    timeout: float = DEFAULT_TIMEOUT
    #: Period multiplier applied after each retransmission (1.0 for
    #: caller-timed requests — fixed cadence).
    backoff: float = 1.0
    #: Set when the completion reaches the requesting endpoint (it may
    #: still wait in the FM's serial processing queue).  Timeouts
    #: measure the fabric round trip, not the FM's own backlog.
    arrived: bool = False
    #: Transmissions so far (1 = no retries yet).
    attempts: int = 1
    #: Open observability span (:class:`repro.obs.span.Span`) covering
    #: this transaction, when a tracer is attached.
    span: Any = None
    #: Copies the device has answered, and its management entity (the
    #: holder of the stored completion) once it has answered one.
    answered: int = 0
    server: Any = None
    #: Set when the engine is done with it: completed, given up or
    #: cancelled.  No copy is sent after that.
    closed: bool = False

    def answer(self, server) -> bool:
        """``server`` answered one more copy; whether it may forget the
        completion now (closed, and no copy left that could arrive)."""
        self.answered += 1
        self.server = server
        return self.closed and self.answered == self.attempts


class TimeoutPolicy:
    """Derives per-request timeouts from route length and Fig. 4 times.

    The estimate is intentionally crude — cut-through per-hop latency
    for a conservative packet size, both directions, plus the device
    and FM processing times of the Fig. 4 model — then multiplied by a
    safety factor and floored at the requester's configured timeout.
    The floor means the policy can only ever *increase* patience: with
    default parameters the floor dominates and behaviour is identical
    to a fixed-timeout requester, while slowed-down processing factors
    (the Figs. 8-9 ablations) automatically stretch the timeout instead
    of triggering spurious retries.
    """

    __slots__ = ("timing", "algorithm", "floor", "safety",
                 "_turn_width", "_per_hop")

    def __init__(self, params, timing, algorithm: str,
                 floor: float = DEFAULT_TIMEOUT,
                 safety: float = DEFAULT_SAFETY):
        self.timing = timing
        self.algorithm = algorithm
        self.floor = floor
        self.safety = safety
        # All the policy needs of ``params`` (which are frozen): the
        # width of one switch's turn, and the estimate of one link
        # crossing — cut-through latency of a conservative packet.
        self._turn_width = turn_width(params.switch_ports)
        self._per_hop = (
            params.tx_time(MGMT_PACKET_ESTIMATE)
            + params.routing_latency
            + params.propagation_delay
        )

    def timeout_for(self, pool: TurnPool, known_devices: int = 0) -> float:
        """Timeout for one request along ``pool``'s route."""
        # Request and completion each cross every link of the route:
        # one per switch hop the pool encodes + the two endpoint links.
        hops = pool.bits // self._turn_width
        round_trip = 2.0 * (hops + 2) * self._per_hop
        service = (
            self.timing.device_processing_time()
            + self.timing.fm_time(self.algorithm, known_devices)
        )
        derived = self.safety * (round_trip + service)
        return derived if derived > self.floor else self.floor


class TransactionEngine:
    """Outstanding-request tracker for one PI-4 requester.

    The engine owns the tag space, the retry timers, and the pending
    map; the attached manager keeps its completion bookkeeping (stats,
    packet timeline) and supplies hooks for per-transmission accounting.
    Counter names (``requests_sent``, ``retries``, ``timeouts``,
    ``completions_received``, ``stale_completions``) are shared with the
    pre-engine fabric manager so existing dashboards and tests keep
    working.
    """

    def __init__(self, env, entity, counters, *,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 default_timeout: float = DEFAULT_TIMEOUT,
                 policy: Optional[TimeoutPolicy] = None,
                 backoff: float = DEFAULT_BACKOFF,
                 tag_salt: int = 0,
                 on_transmit: Optional[Callable[[Transaction, Any], None]]
                 = None,
                 known_devices: Optional[Callable[[], int]] = None):
        self.env = env
        self.entity = entity
        self.counters = counters
        self.max_retries = max_retries
        self.default_timeout = default_timeout
        self.policy = policy
        self.backoff = backoff
        #: Per-transmission hook: ``on_transmit(transaction, packet)``
        #: (byte accounting on the active discovery's stats).
        self.on_transmit = on_transmit
        #: Size of the requester's topology database, fed to the
        #: timeout policy (FM processing time grows with it).
        self.known_devices = known_devices
        #: Outstanding transactions by tag (``cancel_all`` clears it).
        self.pending: Dict[int, Transaction] = {}
        #: Retry timers by period: a FIFO of ``(deadline, reserved seq,
        #: tag)`` whose head alone is on the heap (module docstring).
        self._timers: Dict[float, deque] = {}
        self._tags = count((tag_salt << TAG_SALT_SHIFT) + 1)
        #: Optional :class:`repro.obs.span.SpanTracer`.  ``None`` (the
        #: default) keeps every hot path at a single ``is not None``
        #: test; the tracer itself never schedules events or touches
        #: RNG, so attaching it cannot perturb a run.
        self.tracer = None

    # -- requester API -----------------------------------------------------
    def open(self, message, pool: TurnPool, out_port: Optional[int],
             callback: Callable, ctx: Any = None,
             retries: Optional[int] = None,
             timeout: Optional[float] = None,
             stats: Optional[Any] = None,
             span_parent: Optional[Any] = None) -> int:
        """Send a request; ``callback(completion_or_None, ctx)``.

        ``retries``/``timeout`` override the engine defaults.  An
        explicit ``timeout`` keeps a fixed retry cadence (the caller
        computed the give-up time); otherwise the timeout policy (when
        configured) derives the initial period and retries back off
        exponentially.  ``span_parent`` nests the transaction's
        observability span under the caller's span (tracing only).
        """
        tag = next(self._tags)
        if timeout is not None:
            period, backoff = timeout, 1.0
        elif self.policy is not None:
            known = self.known_devices() if self.known_devices else 0
            period, backoff = self.policy.timeout_for(pool, known), \
                self.backoff
        else:
            period, backoff = self.default_timeout, self.backoff
        entry = Transaction(
            tag, message, pool, out_port, callback, ctx,
            self.max_retries if retries is None else retries,
            stats, period, backoff,
        )
        tracer = self.tracer
        if tracer is not None:
            entry.span = tracer.begin(
                f"pi4:{type(message).__name__}", "pi4", self.env.now,
                parent=span_parent, track="pi4", tag=tag,
            )
        self.pending[tag] = entry
        self._transmit(entry)
        return tag

    def note_arrival(self, tag: int) -> None:
        """A completion for ``tag`` reached the requesting endpoint."""
        entry = self.pending.get(tag)
        if entry is not None:
            entry.arrived = True

    def complete(self, message) -> Optional[Transaction]:
        """Match a decoded completion to its transaction.

        Pops and returns the transaction, or ``None`` for a stale
        completion (already completed, superseded, or a duplicate
        delivered by a replaying link).
        """
        entry = self.pending.pop(message.tag, None)
        if entry is None:
            self.counters.incr("stale_completions")
            return None
        self.counters.incr("completions_received")
        self._close(entry, "completed", attempts=entry.attempts)
        return entry

    def cancel_all(self) -> None:
        """Forget every outstanding transaction (no callbacks fire)."""
        for entry in self.pending.values():
            self._close(entry, "cancelled")
        self.pending.clear()

    # -- internals ---------------------------------------------------------
    def _close(self, entry: Transaction, outcome: str, **args) -> None:
        """The requester is done with ``entry``: its span ends, and the
        device forgets the completion unless a copy it has not answered
        may still arrive."""
        entry.closed = True
        if entry.answered == entry.attempts:
            entry.server._served_replies.pop(entry.tag, None)
        if entry.span is not None and self.tracer is not None:
            self.tracer.end(entry.span, self.env.now, outcome=outcome, **args)

    def _transmit(self, entry: Transaction) -> None:
        pool = entry.pool
        packet = self.entity.send_pi4(
            entry.message, pool.pool, pool.bits, entry.out_port, entry
        )
        self.counters.incr("requests_sent")
        if self.on_transmit is not None:
            self.on_transmit(entry, packet)
        env, period = self.env, entry.timeout
        slot = (env.now + period, env.reserve(), entry.tag)
        fifo = self._timers.get(period)
        if fifo is None:
            self._timers[period] = deque((slot,))
            env.schedule_at(slot[0], slot[1], self._expire, period)
        else:
            fifo.append(slot)

    def _expire(self, period: float) -> None:
        """The head timer of ``period`` fires; push the next live one."""
        env, fifo, pending = self.env, self._timers[period], self.pending
        tag = fifo.popleft()[2]
        entry = pending.get(tag)
        acts = entry is not None and not entry.arrived
        if fifo and fifo[0][0] == env.now and (acts or not env.quiet()):
            # The next timer is due at this very instant: while this one
            # acts, or while anything else is due now, its eager entry
            # would be on the heap, and a handler may ask ``quiet()``.
            # Push it first, live or not.
            env.schedule_at(env.now, fifo[0][1], self._expire, period)
            return self._on_timeout(tag)
        self._on_timeout(tag)
        while len(fifo) > 1:
            entry = pending.get(fifo[0][2])
            if entry is not None and not entry.arrived:
                break
            fifo.popleft()
        if fifo:
            env.schedule_at(fifo[0][0], fifo[0][1], self._expire, period)
        else:
            del self._timers[period]

    def _on_timeout(self, tag: int) -> None:
        entry = self.pending.get(tag)
        if entry is None:
            return  # completed (or superseded) in the meantime
        if entry.arrived:
            return  # response is queued at the requester; not a loss
        if entry.retries_left > 0:
            entry.retries_left -= 1
            entry.attempts += 1
            entry.timeout *= entry.backoff
            self.counters.incr("retries")
            if entry.stats is not None:
                entry.stats.retries += 1
            if entry.span is not None and self.tracer is not None:
                self.tracer.instant(
                    "retransmit", "pi4", self.env.now,
                    parent=entry.span, track="pi4",
                    attempt=entry.attempts,
                )
            self._transmit(entry)
            return
        del self.pending[tag]
        self.counters.incr("timeouts")
        if entry.stats is not None:
            entry.stats.timeouts += 1
        self._close(entry, "timeout", attempts=entry.attempts)
        entry.callback(None, entry.ctx)
