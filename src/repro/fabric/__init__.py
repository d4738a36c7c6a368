"""The simulated Advanced Switching fabric.

Implements the hardware substrate the paper's OPNET model provided:
links, virtual channels, credit flow control, cut-through switches,
endpoints, and the packet formats management protocols ride on.
"""

from .crc import crc8, crc32
from .device import Device
from .endpoint import Endpoint
from .fabric import Fabric, FabricError
from .header import HEADER_BYTES, TURN_POOL_BITS, HeaderError, RouteHeader
from .packet import (
    PI_APPLICATION,
    PI_DEVICE_MANAGEMENT,
    PI_EVENT,
    Packet,
    make_management_header,
)
from .params import (
    APPLICATION_TC,
    DEFAULT_PARAMS,
    MANAGEMENT_TC,
    FabricParams,
)
from .phy import Link, LinkError
from .port import Port
from .switch import Switch
from .trace import PacketHop, PacketTracer
from .vc import CreditError, VCType, VirtualChannel

__all__ = [
    "APPLICATION_TC",
    "CreditError",
    "DEFAULT_PARAMS",
    "Device",
    "Endpoint",
    "Fabric",
    "FabricError",
    "FabricParams",
    "HEADER_BYTES",
    "HeaderError",
    "Link",
    "LinkError",
    "MANAGEMENT_TC",
    "PI_APPLICATION",
    "PI_DEVICE_MANAGEMENT",
    "PI_EVENT",
    "Packet",
    "PacketHop",
    "PacketTracer",
    "Port",
    "RouteHeader",
    "Switch",
    "TURN_POOL_BITS",
    "VCType",
    "VirtualChannel",
    "crc32",
    "crc8",
    "make_management_header",
]
