"""ASI packets: a route header plus an encapsulated protocol payload.

The PI (Protocol Interface) field of the route header identifies the
payload protocol.  This module defines the PI numbers used by the
reproduction (matching the specification where the paper names them)
and the :class:`Packet` object that travels through the simulated
fabric.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Optional, Tuple

from .crc import crc32
from .header import HEADER_BYTES, HeaderError, RouteHeader

# -- Protocol Interface numbers ---------------------------------------------
#: Device configuration and control protocol (PI-4): the read/write
#: requests and completions the discovery process is built from.
PI_DEVICE_MANAGEMENT = 4
#: Event reporting protocol (PI-5): port state change notifications.
PI_EVENT = 5
#: Generic encapsulated application data (used by the background
#: traffic workload; real ASI assigns encapsulation PIs from 8 up).
PI_APPLICATION = 8

_packet_ids = count()


class PacketError(ValueError):
    """Raised when a packet cannot be decoded from bytes."""


@dataclass(slots=True)
class Packet:
    """A packet in flight through the simulated fabric.

    The first two fields are "on the wire"; the rest is simulation
    bookkeeping that a real packet would not carry.
    """

    header: RouteHeader
    payload: bytes = b""
    #: Unique id for tracing and for matching requests to completions.
    pkt_id: int = field(default_factory=_packet_ids.__next__)
    #: Name of the originating device.
    src: str = ""
    #: Simulation time the packet was injected.
    created_at: float = 0.0
    #: Hop counter maintained by switches (diagnostics only).
    hops: int = 0
    #: The decoded PI-4 message, set by the management entity the
    #: packet reaches (its one decode); ``None`` on every other packet
    #: and on one whose payload would not decode.
    message: Any = field(default=None, init=False, repr=False,
                         compare=False)
    #: The requester's :class:`~repro.protocols.transaction.Transaction`
    #: on a PI-4 request it sent where no link replays a packet: how the
    #: device learns when it may forget the completion it stored.
    transaction: Any = field(default=None, init=False, repr=False,
                             compare=False)
    #: Wire size and credit footprint under ``wire_params``, the
    #: ``FabricParams`` object of the port that stamped the packet
    #: (:meth:`Port.send`, for its arbitration and transmission; a
    #: payload is not resized once sent, so the next port with the
    #: same parameters reuses the stamp).
    wire_size: int = field(default=0, init=False, repr=False, compare=False)
    wire_units: int = field(default=0, init=False, repr=False, compare=False)
    wire_params: Any = field(default=None, init=False, repr=False,
                             compare=False)
    #: The input buffer the packet occupies, as ``(port, vc, units,
    #: epoch)``, from head arrival until it starts its next
    #: transmission or is consumed (virtual cut-through); ``None``
    #: while it holds none.  See :meth:`Port.release_input`.
    rx_hold: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def size_bytes(self, framing_overhead: int = 8, pcrc_bytes: int = 4) -> int:
        """Total wire size: framing + route header + payload + PCRC."""
        return self.wire_footprint(1, framing_overhead, pcrc_bytes)[0]

    def wire_footprint(self, credit_unit: int = 64, framing_overhead: int = 8,
                       pcrc_bytes: int = 4) -> Tuple[int, int]:
        """``(size_bytes, credit_units)`` in one call: what a port
        needs of every packet it queues."""
        length = len(self.payload)
        size = framing_overhead + HEADER_BYTES + length + (
            pcrc_bytes if length else 0
        )
        # Integer ceiling division; exact, unlike float math.ceil.
        units = -(-size // credit_unit)
        return size, units if units > 0 else 1

    def credit_units(self, credit_unit: int = 64,
                     framing_overhead: int = 8, pcrc_bytes: int = 4) -> int:
        """Number of flow-control credits the packet occupies."""
        return self.wire_footprint(credit_unit, framing_overhead,
                                   pcrc_bytes)[1]

    def pcrc(self) -> int:
        """End-to-end CRC over the payload."""
        return crc32(self.payload)

    # -- wire format --------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize header + payload (+ PCRC when present) to bytes.

        The simulator moves :class:`Packet` objects directly for speed,
        but the wire format is fully defined: this is what a conformance
        capture of the modeled fabric would contain (minus link-layer
        framing, which carries no protocol content).
        """
        body = self.header.pack() + self.payload
        if self.payload:
            body += struct.pack(">I", self.pcrc())
        return body

    @classmethod
    def from_bytes(cls, data: bytes, check_crc: bool = True) -> "Packet":
        """Decode a packet, verifying header CRC and payload PCRC."""
        header = RouteHeader.unpack(data, check_crc=check_crc)
        rest = data[HEADER_BYTES:]
        if rest:
            if len(rest) < 4:
                raise PacketError("payload present but PCRC truncated")
            payload, (stored,) = rest[:-4], struct.unpack(">I", rest[-4:])
            if check_crc:
                computed = crc32(payload)
                if computed != stored:
                    raise PacketError(
                        f"PCRC mismatch: stored {stored:#010x}, computed "
                        f"{computed:#010x}"
                    )
        else:
            payload = b""
        return cls(header=header, payload=payload)


def make_management_header(
    turn_pool: int,
    turn_pointer: int,
    pi: int,
    tc: int = 7,
    direction: int = 0,
) -> RouteHeader:
    """Build a route header for a management packet.

    Management packets use the highest traffic class and set the
    type-specific bypass bit so they may overtake application traffic
    in BVC bypass queues (the property the paper leans on when arguing
    application traffic scarcely affects discovery time).
    """
    return RouteHeader(
        pi=pi,
        tc=tc,
        direction=direction,
        oo=0,
        ts=1,
        turn_pointer=turn_pointer,
        turn_pool=turn_pool,
    )
