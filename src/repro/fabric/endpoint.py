"""Fabric endpoints.

Endpoints terminate every packet that reaches them — they never
forward.  They host protocol entities (and possibly a fabric manager)
and, in this model as in the paper, have a single port.
"""

from __future__ import annotations

from ..capability import DEVICE_TYPE_ENDPOINT, PathTableCapability
from .device import Device
from .packet import Packet
from .port import Port


class Endpoint(Device):
    """A fabric endpoint (1 port in the paper's model; spec allows 4)."""

    type_code = DEVICE_TYPE_ENDPOINT
    kind = "endpoint"

    __slots__ = ("fm_capable",)

    def __init__(self, env, name, dsn, nports, params,
                 fm_capable: bool = True):
        super().__init__(env, name, dsn, nports, params)
        #: Whether this endpoint may host a fabric manager.
        self.fm_capable = fm_capable
        self.config_space.add(PathTableCapability())

    def handle_rx(self, packet: Packet, port: Port, vc_index: int,
                  tail_lag: float) -> None:
        header = packet.header
        if header.direction == 0 and header.turn_pointer != 0:
            # A forward route should be exhausted on arrival at an
            # endpoint; leftover turn bits indicate a stale or corrupt
            # route.  Count and drop.
            self._stats.incr("header_errors")
            port.error_count += 1
            Port.release_input(packet)
            return
        self.consume(packet, port, tail_lag)
