"""Fabric switch elements: multiplexed virtual cut-through switches.

A switch routes unicast packets by turn pool (forward or backward, see
:mod:`repro.routing.turnpool`) after a fixed routing latency, acting on
the packet head (virtual cut-through).  Packets whose forward turn
pointer has reached zero are addressed *to* the switch itself — that is
how the fabric manager reads a switch's configuration space.  Multicast
packets (PI-0) are delivered to the switch's management entity, which
implements replication (used by the FM election flood).
"""

from __future__ import annotations

from ..capability import DEVICE_TYPE_SWITCH
from ..capability.multicast import MulticastCapability
from ..routing.tables import MulticastForwardingTable
from ..routing.turnpool import TurnPoolError, route_step
from .device import Device
from .packet import PI_MULTICAST, Packet
from .port import Port


class Switch(Device):
    """A fabric switch element (the paper's model uses 16 ports)."""

    type_code = DEVICE_TYPE_SWITCH
    kind = "switch"

    __slots__ = ("mcast_table",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Multicast forwarding table (paper, section 2), programmed by
        #: the FM through the multicast capability.
        self.mcast_table = MulticastForwardingTable(self.nports)
        self.config_space.add(MulticastCapability(self.mcast_table))

    def handle_rx(self, packet: Packet, port: Port, vc_index: int,
                  tail_lag: float) -> None:
        if not self.active:
            self._stats.incr("rx_dropped_inactive")
            Port.release_input(packet)
            return
        if packet.header.pi == PI_MULTICAST:
            # The turn-pool field of a multicast packet carries the
            # group id.  Programmed groups replicate in hardware;
            # unprogrammed groups fall back to the management entity's
            # software flood (used by the election protocol).
            group = packet.header.turn_pool & 0xFFFF
            if group in self.mcast_table:
                self.env.call_later(self.params.routing_latency,
                                    self._replicate, packet, port, group)
            else:
                self.consume(packet, port, tail_lag)
            return
        header = packet.header
        if header.direction == 0 and header.turn_pointer == 0:
            # Forward route exhausted: the packet is for this switch.
            self.consume(packet, port, tail_lag)
            return
        self.env.call_later(self.params.routing_latency, self._route,
                            packet, port)

    def _route(self, packet: Packet, in_port: Port) -> None:
        """Pick the egress port and forward (or drop on route error)."""
        if not self.active:
            self._stats.incr("rx_dropped_inactive")
            Port.release_input(packet)
            return
        header = packet.header
        try:
            egress, new_pointer = route_step(
                header.direction, header.turn_pool, header.turn_pointer,
                in_port.index, self._nports)
        except TurnPoolError:
            self._stats.incr("route_errors")
            in_port.error_count += 1
            if self._trace_hook is not None:
                self._trace_hook("drop", self, in_port.index, packet,
                                 detail="turn pool error")
            Port.release_input(packet)
            return

        out_port = self.ports[egress]
        link = out_port.link
        if link is None or not link.up:  # ``is_up`` of an active device
            self._stats.incr("forward_drops")
            out_port.error_count += 1
            if self._trace_hook is not None:
                self._trace_hook("drop", self, egress, packet,
                                 detail="egress port down")
            Port.release_input(packet)
            return

        header.turn_pointer = new_pointer
        packet.hops += 1
        self.forwarded += 1
        if self._trace_hook is not None:
            self._trace_hook("forward", self, egress, packet,
                             detail=f"in={in_port.index}")
        out_port.send(packet)

    def _replicate(self, packet: Packet, in_port: Port, group: int) -> None:
        """Hardware multicast: copy to every group port but the ingress."""
        if not self.active:
            self._stats.incr("rx_dropped_inactive")
            Port.release_input(packet)
            return
        egresses = self.mcast_table.egress_ports(group, in_port.index)
        copies = 0
        for index in egresses:
            out_port = self.ports[index]
            if not out_port.is_up:
                self._stats.incr("forward_drops")
                continue
            clone = Packet(
                header=packet.header.copy(),
                payload=packet.payload,
                src=packet.src,
                created_at=packet.created_at,
                hops=packet.hops + 1,
            )
            out_port.send(clone)
            copies += 1
        self._stats.incr("mcast_replicated", copies)
        Port.release_input(packet)
