"""Device ports: per-VC output queues, arbitration, and flow control.

Each port owns the transmit side of its link direction.  A
callback-driven engine arbitrates among the port's virtual channels
(strict priority: higher VC index first, and within a BVC the bypass
queue first), reserves credits mirroring the far side's input buffer,
serializes the packet on the link, and delivers the head to the remote
port.

The receive side accounts input-buffer occupancy and hands packets to
the owning device; when the device releases the packet (forwards or
consumes it), credits flow back to the sender after one propagation
delay.

Event economy.  A hop needs one heap event — the head's arrival at the
far port.  The rest of the chain exists only to be observed, so it is
materialised only when something can observe it, always in the heap
slot (timestamp *and* sequence number) the eager event would have
held, which keeps every run bit-identical:

* the serialization-done timer matters only if a packet is queued
  before the lane is free: with an empty queue its slot is reserved,
  not pushed (:meth:`Port._tx_start`, :meth:`Port._wake`);
* a credit return matters only to a sender blocked on credits: until
  then it waits in the sender's ledger and is applied when the sender
  next arbitrates (:meth:`Port.release_input`, :meth:`Port._settle`);
* a zero-delay kick that would be the very next pop runs inline, and
  one that would find nothing queued is not scheduled at all;
* the URGENT kick a port takes when its link is attached matters only
  if a packet is queued before it would have run: its slot is
  reserved, and :meth:`Port.send` pushes it on demand
  (:meth:`Port.attach_link`, :meth:`Port._claim_kick`);
* a packet that inline kick would find alone — nothing queued, lane
  free, credits in hand — is transmitted by :meth:`Port.send` itself
  and never enters a queue.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Optional, Tuple

from ..sim.core import Environment, Infinity
from ..sim.monitor import Counter
from .header import HeaderError
from .packet import Packet, PacketError
from .params import FabricParams
from .phy import DELIVER_CORRUPT, DELIVER_OK
from .vc import CreditError, VCType, VirtualChannel


@lru_cache(maxsize=None)
def _vc_details(vc_count: int) -> Tuple[str, ...]:
    """Flyweight trace detail strings, shared by every same-shaped port."""
    return tuple(f"vc={i}" for i in range(vc_count))


@lru_cache(maxsize=None)
def _vc_types(vc_count: int, names: Tuple[str, ...]) -> Tuple[VCType, ...]:
    """Queue discipline per VC index, shared like the detail strings.

    All BVCs unless ``FabricParams.vc_types`` names them: the paper's
    management packets rely on bypass behaviour, and modeling every
    unicast VC as a BVC gives them their priority path while keeping
    the arbiter uniform.
    """
    return tuple(VCType(name) for name in names) or (VCType.BVC,) * vc_count


#: Counted once or more per hop, so kept as integer slots on the port
#: (same names) instead of going through ``Counter.incr``.
HOT_COUNTERS = ("tx_queued", "tx_packets", "tx_bytes", "rx_packets",
                "rx_bytes")


def read_counters(owners, keys: Tuple[str, ...]) -> Counter:
    """The counters of the sequence ``owners`` summed key by key: those
    of their integer slots ``keys`` that have counted (one C-level sum
    per slot), beside their rare bundles ``_stats``.

    Every counter has one home and this only reads it — nothing is
    written to or created on an owner, so no copy exists that could go
    stale, and changing the result changes nothing.
    """
    stats = Counter((key, total) for key in keys
                    if (total := sum(map(attrgetter(key), owners))))
    for bundle in filter(None, map(attrgetter("_stats"), owners)):
        for key, value in bundle.items():
            stats[key] += value
    return stats


class Port:
    """One port of a fabric device.

    The heavyweight per-port structures — input-buffer accounting, the
    stats counter, and one transmit record per virtual channel — are
    materialized on first use.  A mega-scale fabric wires hundreds of
    thousands of ports and a discovery sends out of every attached one,
    but on the management VC only: a port pays for the VCs it has
    used, not for the ones it implements.
    """

    __slots__ = (
        "device", "index", "params", "env", "link", "error_count",
        *HOT_COUNTERS, "_stats", "_tx_vcs", "_rx_use", "_tx_busy",
        "_tx_kick_scheduled", "_kick", "_queued", "_free_at", "_done_seq",
        "_ledger", "_blocked", "_trace", "_vc_detail", "_credit_unit",
        "_framing", "_pcrc", "_prop", "_byte_time", "_rx_cap",
        "_tc_vc_map", "_pick_order", "_head_latency", "_remote",
        "_error_model",
    )

    def __init__(self, device, index: int, params: FabricParams):
        self.device = device
        self.index = index
        self.params = params
        self.env: Environment = device.env
        self.link = None
        self.error_count = 0
        #: The per-hop counters are plain integers; the rare ones live
        #: in a :class:`Counter` that the first rare event creates
        #: (``_count``).  ``stats`` reads both.
        self.tx_queued = self.tx_packets = self.tx_bytes = 0
        self.rx_packets = self.rx_bytes = 0
        self._stats: Optional[Counter] = None
        #: Transmit records (output queues + remote input-buffer
        #: mirror) indexed by VC, ``None`` for a VC that never carried a
        #: packet — and no list at all until this port transmits — and
        #: the arbitration order: the records in use, highest VC first.
        self._tx_vcs = None
        self._pick_order = ()
        #: Units currently held in our own input buffer, per VC
        #: (``None`` until this port receives).
        self._rx_use = None
        #: Transmit-engine state (see ``_tx_start``): the lane is
        #: serializing / a zero-delay kick is already on the heap /
        #: packets waiting in the VC queues.
        self._tx_busy = False
        self._tx_kick_scheduled = False
        self._queued = 0
        #: The attach kick's reserved URGENT slot until a packet claims
        #: it (``None``: none reserved, or it was claimed).
        self._kick = None
        #: While busy with nothing queued, the serialization-done timer
        #: is not pushed: the lane is free at ``_free_at`` and
        #: ``_done_seq`` is the timer's reserved sequence number (-1
        #: whenever the timer is on the heap, or was never needed).
        self._free_at = 0.0
        self._done_seq = -1
        #: Credit returns on their way to this transmitter, as
        #: ``(due, reserved seq, vc, units, epoch)`` in due order — a
        #: list, not a deque: it holds a handful of entries and every
        #: transmitting port has one (``None`` until then).  While
        #: ``_blocked`` — the last arbitration found packets but no
        #: credits — returns are real events instead, so one of them
        #: restarts the engine.
        self._ledger = None
        self._blocked = False
        #: Mirror of ``device.trace_hook`` (kept in sync by its setter)
        #: so the per-packet paths pay a single attribute load.  Ports
        #: are built before the device finishes initializing, hence the
        #: guarded read.
        self._trace = getattr(device, "_trace_hook", None)
        #: Trace detail strings, interned across ports.
        self._vc_detail = _vc_details(params.vc_count)
        #: ``FabricParams`` is frozen, so its values are hoisted once
        #: here instead of re-read (attribute chain + property calls)
        #: for every packet.
        self._credit_unit = params.credit_unit
        self._framing = params.framing_overhead
        self._pcrc = params.pcrc_bytes
        self._prop = params.propagation_delay
        self._byte_time = 8.0 / params.data_rate
        self._rx_cap = params.rx_buffer_credits
        self._tc_vc_map = params.tc_vc_map
        self._head_latency = 0.0
        self._remote: Optional["Port"] = None
        #: Mirror of the link's channel error model (hoisted at attach;
        #: None on the default perfect channel, which keeps the
        #: per-packet paths free of error-model branches beyond one
        #: ``is None`` test).
        self._error_model = None

    # -- lazy structures -------------------------------------------------
    @property
    def stats(self) -> Counter:
        """Snapshot of this port's counters (see ``read_counters``)."""
        return read_counters((self,), HOT_COUNTERS)

    def _count(self, key: str, amount: int = 1) -> None:
        """Count a rare event; the first one creates the bundle."""
        stats = self._stats
        if stats is None:
            stats = self._stats = Counter()
        stats.incr(key, amount)

    @property
    def credits(self) -> Tuple[VirtualChannel, ...]:
        """The transmit records of the VCs in use, lowest VC first,
        their credit mirrors up to date (empty until first transmit;
        a VC without a record holds every credit)."""
        self._settle_for_read()
        return self._pick_order[::-1]

    @property
    def _rx_in_use(self):
        """Per-VC input-buffer occupancy (empty until first receive)."""
        return self._rx_use if self._rx_use is not None else ()

    def _open_vc(self, index: int) -> VirtualChannel:
        """Create VC ``index``'s transmit record for its first packet."""
        params = self.params
        if self._tx_vcs is None:
            self._tx_vcs = [None] * params.vc_count
            self._ledger = []
        vc = self._tx_vcs[index] = VirtualChannel(
            index, _vc_types(params.vc_count, params.vc_types)[index],
            self._rx_cap)
        # Strict priority goes by VC index, not by who sent first.
        self._pick_order = tuple(
            used for used in reversed(self._tx_vcs) if used is not None)
        return vc

    # -- identity -------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.device.name}.p{self.index}"

    @property
    def is_up(self) -> bool:
        """Port state as seen by the baseline capability."""
        return (
            self.link is not None
            and self.link.up
            and self.device.active
        )

    def neighbor(self):
        """The port at the far end of the attached link, or None."""
        if self.link is None:
            return None
        return self.link.other(self)

    # -- wiring -----------------------------------------------------------
    def attach_link(self, link) -> None:
        if self.link is not None:
            raise RuntimeError(f"port {self.name} already has a link")
        self.link = link
        self._head_latency = link.head_latency()
        self._remote = link.other(self)
        self._error_model = link.error_model
        # Prime the transmit engine.  The urgent zero-delay kick is what
        # transmits packets queued before the run starts — ahead of
        # every callback, ports in attach order.  With nothing queued it
        # would find nothing, so only its slot is reserved.
        self._kick = self.env.reserve_urgent()

    def _claim_kick(self) -> None:
        """A packet meets a reserved attach kick: push the kick into its
        slot, unless it has passed — it found nothing then."""
        slot, self._kick = self._kick, None
        if not self.env.has_passed(*slot):
            self._tx_kick_scheduled = True
            self.env.schedule_urgent(slot, self._tx_kick)

    def on_link_state(self, up: bool) -> None:
        """Called by the link on up/down transitions."""
        if not up:
            used, self._pick_order = self._pick_order, ()
            if self._tx_vcs is not None:
                # Lost packets' credits are resynchronized on retrain
                # and the returns still under way belong to them (a
                # stale one is voided by its epoch): forget the records.
                self._tx_vcs = None
                self._ledger.clear()
                self._blocked = False
                self._queued = 0
            if self._rx_use is not None:
                self._rx_use = [0] * self.params.vc_count
            # Lowest VC first: a release draws a sequence number, and
            # this is the order they have always been drawn in.
            for vc in reversed(used):
                dropped = len(vc)
                if dropped:
                    self._count("tx_dropped_link_down", dropped)
                for packet in vc:
                    # Forwarded packets still hold an input buffer
                    # on another port of this device; free it.
                    self.release_input(packet)
        self._wake()
        self.device.on_port_state_change(self, up)

    # -- transmit side ------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit a packet out of this port: at once if it meets a
        free lane with credits in hand and nothing else is due at this
        instant, through its VC's queue otherwise.

        Raises
        ------
        CreditError
            If the packet exceeds the far side's entire input buffer —
            it could never be granted credits and would wedge its VC
            queue forever (real links negotiate max payload against
            buffer size at training time).
        """
        params = self.params
        if packet.wire_params is params:
            units = packet.wire_units
        else:
            packet.wire_size, units = packet.wire_footprint(
                self._credit_unit, self._framing, self._pcrc
            )
            packet.wire_units = units
            packet.wire_params = params
        if units > self._rx_cap:
            self.release_input(packet)
            raise CreditError(
                f"packet of {units} credit units exceeds the "
                f"{self._rx_cap}-unit receive buffer; "
                f"lower max_payload or raise rx_buffer_credits"
            )
        vc_index = self._tc_vc_map[packet.header.tc & 0x7]
        link = self.link
        if link is None or not link.up or not self.device.active:
            self._count("tx_dropped_no_link")
            self.release_input(packet)
            return
        vcs = self._tx_vcs
        vc = vcs[vc_index] if vcs is not None else None
        if vc is None:
            vc = self._open_vc(vc_index)
        self.tx_queued += 1
        if self._trace is not None:
            self._trace("enqueue", self.device, self.index, packet,
                        f"vc{vc_index}")
        if self._kick is not None:
            self._claim_kick()
        # The uncontended packet: nothing queued, no kick pending, the
        # lane free and nothing else due at this instant.  The kick
        # ``_wake`` would run inline finds this packet alone, so it is
        # transmitted without passing through a queue.
        if not (self._queued or self._tx_kick_scheduled):
            env = self.env
            now = env.now
            seq = self._done_seq
            free_at = self._free_at
            if seq >= 0 and (free_at < now or (
                    free_at == now and env.has_passed(now, seq))):
                # The elided done timer would have fired and found
                # nothing (``_wake`` does the same).
                self._done_seq = -1
                self._tx_busy = False
            if not self._tx_busy and env.quiet():
                if self._ledger:
                    self._settle(now, True)
                if vc.available >= units:
                    self._tx_start(True, packet, vc)
                    return
        vc.push(packet)
        self._queued += 1
        self._wake()

    def _wake(self) -> None:
        """Have the transmit engine arbitrate, unless it will anyway.

        Nothing queued: a kick would find nothing, so none is
        scheduled.  Serialization in flight: the done timer
        re-arbitrates — pushed now, in its reserved slot, if it was
        elided and has not logically fired.  Otherwise a zero-delay
        kick, run inline when it would be the very next pop.
        """
        if not self._queued:
            return
        env = self.env
        if self._tx_busy:
            seq = self._done_seq
            if seq < 0:
                return
            self._done_seq = -1
            free_at = self._free_at
            if free_at > env.now or not env.has_passed(free_at, seq):
                env.schedule_at(free_at, seq, self._tx_start)
                return
            # The elided timer would have fired and found nothing.
            self._tx_busy = False
        if self._tx_kick_scheduled:
            return
        if env.quiet():
            self._tx_start(inline=True)
        else:
            self._tx_kick_scheduled = True
            env.call_later(0.0, self._tx_kick)

    def _tx_kick(self, _handle=None) -> None:
        self._tx_kick_scheduled = False
        self._tx_start()

    def _tx_start(self, inline: bool = False,
                  packet: Optional[Packet] = None,
                  vc: Optional[VirtualChannel] = None) -> None:
        """Arbitrate, reserve credits, serialize, deliver (one packet).

        The transmit engine is a callback-driven state machine rather
        than a generator process.  It is idle until :meth:`_wake` kicks
        it; while serializing it is *busy*, and its serialization-done
        timer calls this method to free the lane and re-arbitrate
        (every other caller finds the lane free).  ``inline`` says the
        call stands in for a zero-delay kick that would have been the
        next pop: it ranks after every sequence number drawn so far.
        :meth:`send` passes the ``packet`` it found uncontended and its
        ``vc`` record — the ledger settled, the credits seen — and
        there is nothing to arbitrate.
        """
        link = self.link
        env = self.env
        now = env.now
        if packet is None:
            self._tx_busy = False
            if link is None or not link.up or not self._queued:
                return
            if self._ledger:
                self._settle(now, inline)
            # Strict priority: the highest VC whose head packet (bypass
            # queue first) has its credits available.
            for vc in self._pick_order:
                queue = vc.bypass or vc.ordered
                if queue:
                    packet = queue[0]
                    if vc.available >= packet.wire_units:
                        break
            else:
                if not self._blocked:
                    self._block()
                return
            self._blocked = False
            queue.popleft()
            self._queued -= 1
        units = packet.wire_units
        if 0 < units <= vc.available:
            vc.available -= units
        else:
            vc.take(units)  # raises: the conservation check
        packet.header.credits_required = units if units < 31 else 31
        # The packet leaves this device's buffer as its first bit
        # hits the wire: release the upstream input buffer now.
        self.release_input(packet)

        size = packet.wire_size
        tx_time = size * self._byte_time
        head = self._head_latency
        prop = self._prop
        epoch = link.epoch
        tail_lag = tx_time - head + prop
        if tail_lag < 0.0:
            tail_lag = 0.0

        self.tx_packets += 1
        self.tx_bytes += size
        if self._trace is not None:
            self._trace("tx", self.device, self.index, packet,
                        detail=self._vc_detail[vc.index])

        # The head arrives after the header's serialization, or with
        # the tail if the packet is shorter than that.
        arrival = tx_time + prop
        if head < arrival:
            arrival = head
        call_later = env.call_later
        receive = self._remote._receive
        call_later(arrival, receive, packet, vc.index, units, tail_lag,
                   epoch, size)
        busy_time = tx_time
        error_model = self._error_model
        if (
            error_model is not None
            and error_model.duplicate_rate > 0.0
            and error_model.duplicate()
            and vc.available >= units
        ):
            # Link-layer replay: the lane serializes a second copy
            # back-to-back.  The replay consumes its own credits (it
            # really occupies the remote buffer) and is skipped when
            # none are free.
            vc.take(units)
            replay = self._clone_for_replay(packet)
            self._count("tx_replays")
            if self._trace is not None:
                self._trace("tx", self.device, self.index, replay,
                            detail="link replay")
            call_later(tx_time + arrival, receive, replay, vc.index, units,
                       tail_lag, epoch, size)
            busy_time += tx_time
        # Keep the lane busy for the full serialization time.  The
        # done timer only matters if a packet is queued before it
        # fires; with none queued now, reserve its slot and let
        # ``_wake`` push it on demand.
        self._tx_busy = True
        if self._queued:
            call_later(busy_time, self._tx_start)
        else:
            self._free_at = now + busy_time
            self._done_seq = env.reserve()

    @staticmethod
    def _clone_for_replay(packet: Packet) -> Packet:
        """A wire-identical copy for link-layer duplication.

        The header is copied (switches rewrite the turn pointer in
        place, so the two in-flight copies must not share one) and the
        clone starts with fresh bookkeeping: no input buffer held, its
        own hop counter.
        """
        replay = Packet(
            header=packet.header.copy(),
            payload=packet.payload,
            src=packet.src,
            created_at=packet.created_at,
            hops=packet.hops,
        )
        return replay

    @staticmethod
    def release_input(packet: Packet) -> None:
        """Free the input buffer ``packet`` occupies, if any.

        Virtual cut-through: called when the packet starts its next
        transmission, is consumed, or is dropped.
        """
        hold = packet.rx_hold
        if hold is not None:
            packet.rx_hold = None
            port, vc_index, units, epoch = hold
            # After a down transition the buffer is already
            # resynchronized: nothing to free, nothing to return.
            if port.link.epoch == epoch:
                rx_use = port._rx_use
                held = rx_use[vc_index] - units
                rx_use[vc_index] = held if held > 0 else 0
                # The credits become visible to the transmitter at the
                # far end one propagation delay from now.  Blocked on
                # credits, it needs that as an event; otherwise it
                # applies the return from its ledger when it next
                # arbitrates, and only the heap slot the event would
                # have held is reserved.
                peer = port._remote
                env = port.env
                if peer._blocked:
                    env.call_later(port._prop, peer._credit_event, vc_index,
                                   units, epoch)
                else:
                    peer._ledger.append((env.now + port._prop, env.reserve(),
                                         vc_index, units, epoch))

    # -- receive side ---------------------------------------------------------
    def _receive(self, packet: Packet, vc_index: int, units: int,
                 tail_lag: float, epoch: int, size: int) -> None:
        """Head of ``packet`` has arrived from the link.

        ``size`` is the wire size already computed by the transmitter,
        passed through so the receive path does not recompute it.
        """
        link = self.link
        if (
            link is None
            or not link.up
            or link.epoch != epoch
            or not self.device.active
        ):
            self._count("rx_dropped")
            if self._trace is not None:
                self._trace("drop", self.device, self.index, packet,
                            detail="link down / stale epoch")
            return
        # The buffer was reserved at transmit time, so the packet holds
        # it from here on — one lost on the channel too, until it is
        # dropped.
        rx_use = self._rx_use
        if rx_use is None:
            rx_use = self._rx_use = [0] * self.params.vc_count
        rx_use[vc_index] += units
        packet.rx_hold = (self, vc_index, units, epoch)
        if self._error_model is not None and not self._apply_channel_errors(
                packet, size):
            return
        self.rx_packets += 1
        self.rx_bytes += size
        if self._trace is not None:
            self._trace("rx", self.device, self.index, packet,
                        detail=self._vc_detail[vc_index])
        self.device.handle_rx(packet, self, vc_index, tail_lag)

    def _apply_channel_errors(self, packet: Packet, size: int) -> bool:
        """Subject an arriving packet to the link's error process.

        Returns True if the packet survives.  On loss or CRC failure
        the packet is dropped here (with a ``drop`` trace event and a
        counter) and the buffer it holds is released, which returns
        the consumed credits to the sender — a silent drop would leak
        flow-control credits.
        """
        error_model = self._error_model
        verdict = error_model.classify(size)
        if verdict == DELIVER_OK:
            return True
        if verdict == DELIVER_CORRUPT:
            # Realize the corruption: flip wire bits and run the real
            # header-CRC/PCRC decode machinery against the result.
            corrupted, flips = error_model.corrupt_bytes(packet.to_bytes())
            try:
                Packet.from_bytes(corrupted)
            except (HeaderError, PacketError):
                self._count("rx_crc_dropped")
                detail = f"CRC check failed ({flips} flipped bit(s))"
            else:  # pragma: no cover - needs a CRC-32 collision
                self._count("rx_undetected_errors")
                return True
        else:
            self._count("rx_lost")
            detail = "packet lost on link"
        if self._trace is not None:
            self._trace("drop", self.device, self.index, packet,
                        detail=detail)
        self.release_input(packet)
        return False

    # -- credit returns (transmit side) -------------------------------------
    def _credit_event(self, vc_index: int, units: int, epoch: int) -> None:
        """A credit return a blocked sender was waiting for."""
        link = self.link
        if link.epoch == epoch and link.up:  # else voided by a link flap
            self._tx_vcs[vc_index].release(units)
            self._wake()

    def _settle(self, now: float, inline: bool = False,
                drained: bool = False) -> None:
        """Apply the ledgered returns that have logically arrived.

        ``inline``: on behalf of a kick that ranks after every sequence
        number drawn so far, so everything due by now has arrived.
        ``drained``: nothing else will ever run, so all of them have.
        """
        ledger = self._ledger
        link = self.link
        vcs = self._tx_vcs
        arrived = 0
        for due, seq, vc_index, units, epoch in ledger:
            # Earlier than now has passed whatever its number; only a
            # tie needs the kernel's tie-break.
            if not drained and (due > now or (
                    due == now and not inline
                    and not self.env.has_passed(due, seq))):
                break
            arrived += 1
            if link.epoch == epoch and link.up:  # else voided by a flap
                vc = vcs[vc_index]
                total = vc.available + units
                if units < 0 or total > vc.capacity:
                    vc.release(units)  # raises: the conservation check
                vc.available = total
        del ledger[:arrived]

    def _block(self) -> None:
        """Packets queued, credits for none: wake on the next return.

        The returns still under way become real events, each in its
        reserved heap slot, so the engine restarts at exactly the
        instant the first useful one arrives.
        """
        self._blocked = True
        schedule_at = self.env.schedule_at
        for due, seq, vc_index, units, epoch in self._ledger:
            schedule_at(due, seq, self._credit_event, vc_index, units, epoch)
        self._ledger.clear()

    def _settle_for_read(self) -> None:
        """Bring the credit mirrors up to date for introspection.

        Once the environment has no live event left nothing can
        interleave with the returns still under way, and a drained
        fabric should read as idle — every counter full — not as
        whatever the last executed event happened to leave.
        """
        if self._ledger:
            env = self.env
            self._settle(env.now, drained=env.peek() == Infinity)

    # -- introspection ----------------------------------------------------
    def queued_packets(self) -> int:
        """Packets waiting in this port's output queues."""
        return self._queued

    def vc_stats(self) -> list:
        """Read-only per-VC snapshot: queue depths and credit state.

        A pure read of current state — it touches no statistics and
        schedules nothing, so calling it cannot perturb a golden run
        (credit returns that have arrived but not yet been applied are
        applied first; arbitration would do the same).
        A VC without a record reads as empty/full (it never carried a
        packet, so nothing is queued and no credit is spent), and the
        read creates none.
        """
        params = self.params
        self._settle_for_read()
        types = _vc_types(params.vc_count, params.vc_types)
        rows = []
        for index, vc in enumerate(self._tx_vcs or [None] * params.vc_count):
            rows.append({
                "vc": index,
                "type": types[index].value,
                "tx_queued": 0 if vc is None else len(vc),
                "tx_bypass_queued": 0 if vc is None else len(vc.bypass or ()),
                "credits_available": (
                    self._rx_cap if vc is None else vc.available
                ),
                "credits_capacity": self._rx_cap,
                "rx_units_in_use": (
                    0 if self._rx_use is None else self._rx_use[index]
                ),
            })
        return rows

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Port {self.name} {'up' if self.is_up else 'down'}>"
