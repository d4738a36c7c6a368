"""The per-device management entity.

Every fabric device runs a management entity: a single-threaded agent
that processes incoming management packets serially.  For PI-4
*requests* it executes the configuration-space access and returns a
completion along the reversed route, spending ``T_Device`` of
processing time per packet — the quantity the paper scales with the
*device processing factor* (Figs. 8-9).  The paper notes this time is
low and independent of the discovery algorithm and the network size,
because the work is always "return a response packet including the
requested information" (section 4.1).

At the endpoint hosting the fabric manager, the same entity delivers
PI-4 *completions* and PI-5 *events* to the attached manager, charging
the manager's (algorithm-dependent) processing time instead — the
quantity scaled by the *FM processing factor*.

The entity also implements PI-5 emission: when a local port changes
state it sends an event to the FM along the route stored in the
event-route capability.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Callable, Optional

from ..capability import EVENT_ROUTE_CAP_ID, ConfigSpaceError
from ..fabric.device import Device
from ..fabric.packet import (
    PI_APPLICATION,
    PI_DEVICE_MANAGEMENT,
    PI_EVENT,
    Packet,
    make_management_header,
)
from ..fabric.params import MANAGEMENT_TC
from ..fabric.port import Port
from ..sim.monitor import Counter
from . import pi4, pi5

#: Default time a device's management entity spends on one PI-4 packet.
#: Matches the scale the paper reports in Fig. 4 (a few microseconds,
#: profiled on a 3 GHz Pentium 4).
DEFAULT_DEVICE_PROCESSING_TIME = 2.5e-6


class ManagementEntity:
    """Serial management-packet processor attached to a device.

    One cost timer per packet and a backlog for the packets that
    arrive meanwhile, the shape of the port's transmit engine: a
    packet that finds the entity free is decoded, charged its
    processing time with a single timer and dispatched; one that does
    not waits in the backlog for its turn.
    """

    def __init__(self, device: Device,
                 processing_time: float = DEFAULT_DEVICE_PROCESSING_TIME,
                 processing_factor: float = 1.0):
        if processing_factor <= 0:
            raise ValueError("processing factor must be positive")
        self.device = device
        self.env = device.env
        self.processing_time = processing_time
        self.processing_factor = processing_factor
        self.stats = Counter()
        #: Attached fabric manager (duck-typed): must provide
        #: ``packet_cost(packet) -> float`` and
        #: ``handle_management_packet(packet, port) -> None``.
        self.manager = None
        #: Handler for encapsulated application data.  Application
        #: packets cost the management entity nothing — they are
        #: consumed by the host, not the management firmware.
        self.app_handler: Optional[Callable[[Packet, Optional[Port]], None]] = None
        self._event_seq = count(1)
        #: Packets waiting for the serial processing slot (no deque
        #: before the first one has to wait), and whether the slot is
        #: taken (a cost timer or a hand-over is pending).
        self._backlog: Optional[deque] = None
        self._working = False
        #: ``(packet, port, is a request)`` being charged its processing
        #: time; ``None`` whenever no cost timer runs.
        self._current = None
        #: PI-5 recovery: events are fire-and-forget (no completion to
        #: retry on), so on a lossy fabric each one is blindly repeated
        #: — the CDP/LLDP periodic-advertisement idea.  The FM dedups
        #: by (reporter, seq).  Zero on a perfect channel: the default
        #: configuration schedules no extra events.
        self.event_repeats = 2 if device.params.lossy else 0
        #: Spacing between blind PI-5 retransmissions (seconds).
        self.event_repeat_interval = 2e-4
        #: Bounded LRU of served completions — packed, all a resend
        #: needs of them — keyed by request tag.
        #: When a retried (or link-replayed) request arrives again, the
        #: cached completion is resent without re-executing the
        #: configuration-space access — config writes (event routes,
        #: FM claims) are not idempotent.  Tags are unique per request
        #: across requesters (the transaction engine salts them), so a
        #: tag hit really is the same transaction.  A plain dict kept in
        #: LRU order: a hit re-inserts its tag at the end, eviction takes
        #: the first.  A completion is kept only while a copy of its
        #: request may still arrive: once the requester's transaction
        #: has closed and every copy it sent has been answered, it goes
        #: (``Transaction.answer``, ``TransactionEngine._close``).  Until
        #: then the LRU rule holds — for good when a copy was lost,
        #: which the device cannot tell from a late one — and it is the
        #: only rule for a request that carries no transaction (one sent
        #: by hand, or on a fabric whose links replay packets).
        self._served_replies: "dict[int, bytes]" = {}
        #: Completions remembered for duplicate suppression.
        self.served_cache_limit = 256

        device.local_handler = self._enqueue
        device.port_state_observer = self._on_port_state

    # -- costs -------------------------------------------------------------
    @property
    def device_time(self) -> float:
        """Per-packet processing time after applying the factor.

        The factor is a *speed* multiplier (paper, section 4.2): a
        factor of 2 halves the time, 0.2 makes devices five times
        slower.
        """
        return self.processing_time / self.processing_factor

    # -- inbound path ------------------------------------------------------
    def _enqueue(self, packet: Packet, port: Optional[Port]) -> None:
        self.stats.incr("rx_mgmt_packets")
        if packet.header.pi == PI_DEVICE_MANAGEMENT:
            # The packet's one decode; a payload that fails it keeps
            # ``message`` at ``None`` and is counted at its serve turn.
            try:
                packet.message = pi4.decode(packet.payload)
            except pi4.Pi4Error:
                pass
        if self.manager is not None:
            # Let the manager clear request timers at arrival time; the
            # packet still waits for its serial processing slot.
            self.manager.note_packet_arrival(packet)
        if not self._working and self.env.quiet():
            # Free, and a zero-delay hand-over would be the very next
            # pop: serve it now, without a turn in the backlog.
            self._working = True
            self._serve(packet, port)
            return
        if self._backlog is None:
            self._backlog = deque()
        self._backlog.append((packet, port))
        if not self._working:
            # Whatever else is due at this instant runs first.
            self._working = True
            self.env.call_later(0.0, self._serve)

    def _serve(self, packet: Optional[Packet] = None,
               port: Optional[Port] = None) -> None:
        """Take ``packet``, or the head of the backlog, and go on
        through the backlog until a packet has a processing time to
        wait out (or something else is due first)."""
        env = self.env
        while True:
            if packet is None:
                packet, port = self._backlog.popleft()
            # What the packet is decides, here and once, what it costs
            # and (``request``) who gets it: ``T_Device`` unless it is
            # the manager's to hear of, which costs the manager's time,
            # or application data — the host's business, and free.
            pi = packet.header.pi
            manager = self.manager
            request = False
            cost = self.processing_time / self.processing_factor
            if pi == PI_DEVICE_MANAGEMENT:
                message = packet.message
                if message is None:
                    self.stats.incr("pi4_decode_errors")
                    cost = None
                elif message.is_request:
                    request = True
                elif manager is not None:
                    cost = manager.packet_cost(packet)
            elif pi == PI_APPLICATION:
                cost = 0.0
            elif pi == PI_EVENT and manager is not None:
                cost = manager.packet_cost(packet)
            if cost is not None:
                if cost > 0:
                    self._current = (packet, port, request)
                    env.call_later(cost, self._complete)
                    return
                self._dispatch(packet, port, request)
            # Read again: a local loop-back reply may have created it.
            if not self._backlog:
                self._working = False
                return
            if not env.quiet():
                env.call_later(0.0, self._serve)
                return
            packet = None

    def _complete(self) -> None:
        """The current packet's processing time has elapsed."""
        packet, port, request = self._current
        # Out of the slot first: an idle entity holds no packet.
        self._current = None
        self._dispatch(packet, port, request)
        if not self._backlog:
            self._working = False
        elif self.env.quiet():
            self._serve()
        else:
            self.env.call_later(0.0, self._serve)

    def _dispatch(self, packet: Packet, port: Optional[Port],
                  request: bool) -> None:
        if request:
            self._serve_request(packet, port)
            return
        pi = packet.header.pi
        if pi == PI_DEVICE_MANAGEMENT or pi == PI_EVENT:
            if self.manager is not None:
                self.manager.handle_management_packet(packet, port)
            else:
                self.stats.incr("unexpected_completions"
                                if pi == PI_DEVICE_MANAGEMENT
                                else "events_without_manager")
        elif pi == PI_APPLICATION:
            self.stats.incr("app_packets")
            if self.app_handler is not None:
                self.app_handler(packet, port)
        else:
            self.stats.incr("unknown_pi")

    # -- PI-4 service (device side) ---------------------------------------
    def _serve_request(self, packet: Packet, port: Optional[Port]) -> None:
        message = packet.message
        tag = message.tag
        payload = self._served_replies.pop(tag, None)
        if payload is not None:
            # Duplicate of a request already served (the requester
            # retried while the original completion was in flight, or
            # the link layer replayed the request).  Resend the cached
            # completion; the processing time was charged by ``_serve``
            # exactly as for a first-time request.
            self.stats.incr("duplicate_requests")
        else:
            payload = self._execute_request(port, message).pack()
        if packet.transaction is None or not packet.transaction.answer(self):
            # Kept, most recently used, until its transaction lets it go.
            self._served_replies[tag] = payload
            if len(self._served_replies) > self.served_cache_limit:
                del self._served_replies[next(iter(self._served_replies))]
        reply = Packet(header=packet.header.reversed(), payload=payload)
        if port is None:
            # Request was issued locally (FM reading its own endpoint);
            # deliver the completion locally too.
            self._enqueue(reply, None)
        else:
            self.device.inject(reply, port.index)

    def _execute_request(self, port: Optional[Port], message):
        """Run the configuration-space access and build the completion."""
        space = self.device.config_space
        arrival = port.index if port is not None else pi4.NO_PORT
        cap_id = message.cap_id
        offset = message.offset
        if message.msg_type == pi4.MSG_READ_REQUEST:
            try:
                data = space.read(cap_id, offset, message.count)
            except ConfigSpaceError as exc:
                self.stats.incr("read_errors")
                return pi4.ReadError(cap_id, offset, message.tag, arrival,
                                     exc.status)
            self.stats.incr("reads_served")
            return pi4.ReadCompletion(cap_id, offset, message.tag, arrival,
                                      tuple(data))
        try:
            space.write(cap_id, offset, list(message.data))
        except ConfigSpaceError as exc:
            self.stats.incr("write_errors")
            status = exc.status
        else:
            self.stats.incr("writes_served")
            status = pi4.STATUS_OK
        return pi4.WriteCompletion(cap_id, offset, message.tag, arrival,
                                   status)

    # -- PI-4 emission (manager side) ----------------------------------------
    def send_pi4(self, message, turn_pool: int, turn_pointer: int,
                 out_port: Optional[int] = 0,
                 transaction=None) -> Packet:
        """Send a PI-4 message along an explicit source route.

        A zero-turn route (``turn_pointer == 0``) is still a real route:
        it addresses the device directly attached to ``out_port``.  Pass
        ``out_port=None`` to address the *local* device instead — the
        request is looped back through the backlog, modelling the FM
        reading its own endpoint's configuration space.  With the
        transaction engine's ``transaction`` the message is packed
        under its tag instead of its own, and the packet carries the
        transaction to the device — unless a link may replay the
        packet, which would make a copy the requester never counted.
        """
        header = make_management_header(
            turn_pool, turn_pointer, pi=PI_DEVICE_MANAGEMENT,
            tc=MANAGEMENT_TC,
        )
        tag = None if transaction is None else transaction.tag
        packet = Packet(header=header, payload=message.pack(tag),
                        src=self.device.name, created_at=self.env.now)
        if transaction is not None and not self.device.params.duplicate_rate:
            packet.transaction = transaction
        self.stats.incr("pi4_sent")
        if out_port is None:
            self._enqueue(packet, None)
        else:
            self.device.inject(packet, out_port)
        return packet

    # -- PI-5 emission -----------------------------------------------------
    def _on_port_state(self, device: Device, port: Port, up: bool) -> None:
        self.stats.incr("port_events_seen")
        self.report_port_event(port, up)

    def report_port_event(self, port: Port, up: bool) -> None:
        """Send a PI-5 notification to the FM, if a route is known."""
        event = pi5.PortEvent(
            reporter_dsn=self.device.dsn, port=port.index, up=up,
            seq=next(self._event_seq),
        )
        if self.manager is not None:
            # The FM endpoint observes its own port events directly.
            self.manager.handle_local_event(event)
            return
        if not self._emit_event(event):
            return
        for attempt in range(1, self.event_repeats + 1):
            self.env.call_later(attempt * self.event_repeat_interval,
                                self._repeat_event, event)

    def _emit_event(self, event: pi5.PortEvent) -> bool:
        """Transmit one PI-5 notification along the programmed route."""
        cap = self.device.config_space.capability(EVENT_ROUTE_CAP_ID)
        route = cap.get_route()
        if route is None:
            self.stats.incr("events_unroutable")
            return False
        turn_pool, turn_pointer, out_port = route
        header = make_management_header(
            turn_pool, turn_pointer, pi=PI_EVENT, tc=MANAGEMENT_TC,
        )
        packet = Packet(header=header, payload=event.pack(),
                        src=self.device.name, created_at=self.env.now)
        out = self.device.ports[out_port]
        if not out.is_up:
            self.stats.incr("events_unroutable")
            return False
        self.stats.incr("pi5_sent")
        self.device.inject(packet, out_port)
        return True

    def _repeat_event(self, event: pi5.PortEvent) -> None:
        """Blind PI-5 retransmission (the route is re-resolved, so a
        reprogrammed event route is honoured)."""
        if not self.device.active:
            return
        if self._emit_event(event):
            self.stats.incr("pi5_repeats")
