"""Fabric switch elements: multiplexed virtual cut-through switches.

A switch routes every packet by turn pool (forward or backward, see
:mod:`repro.routing.turnpool`) after a fixed routing latency, acting on
the packet head (virtual cut-through).  Packets whose forward turn
pointer has reached zero are addressed *to* the switch itself — that is
how the fabric manager reads a switch's configuration space.
"""

from __future__ import annotations

from ..capability import DEVICE_TYPE_SWITCH
from ..routing.turnpool import TurnPoolError, route_step
from .device import Device
from .packet import Packet
from .port import Port


class Switch(Device):
    """A fabric switch element (the paper's model uses 16 ports)."""

    type_code = DEVICE_TYPE_SWITCH
    kind = "switch"

    __slots__ = ()

    def handle_rx(self, packet: Packet, port: Port, vc_index: int,
                  tail_lag: float) -> None:
        if not self.active:
            self._stats.incr("rx_dropped_inactive")
            Port.release_input(packet)
            return
        header = packet.header
        if header.direction == 0 and header.turn_pointer == 0:
            # The forward route is exhausted: the packet is for this
            # switch.
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
