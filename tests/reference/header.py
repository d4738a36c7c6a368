"""Reference oracle: the route header as it stood in
``src/repro/fabric/header.py`` before its codec took one pass — a
``_pack_words`` call per dword assembly, the CRC checked by re-packing
the decoded fields, a ``__dict__`` per header — unchanged but for this
paragraph and the absolute imports.
``tests/fabric/test_codec_differential.py`` holds the one-pass forms
in ``src/`` to it.

The ASI route header, modeled on Fig. 1 of the paper.

Every ASI packet starts with a routing header carrying:

* **PI** — the protocol interface of the encapsulated payload (PI-4 is
  the device configuration/control protocol, PI-5 event notification);
* **TC** — traffic class, mapped to a virtual channel at each port;
* **Turn Pool / Turn Pointer / D** — the source route (see
  :mod:`repro.routing.turnpool`);
* **OO / TS** — ordered-only / type-specific bits controlling whether a
  packet may use a BVC bypass queue;
* **Credits Required** — size of the packet in credit units, used by
  link-level flow control;
* a header CRC.

Modeled deviations from the real Advanced Switching header (documented
here and in DESIGN.md): the real header is 2 dwords with a 31-bit turn
pool, which caps source routes at 31 turn bits — too short for the
paper's largest topologies (an 8x8 mesh corner-to-corner path needs
14 x 4 = 56 bits through 16-port switches).  We widen the pool to 64
bits (header becomes 4 dwords) and give the turn pointer 7 bits.  All
other semantics follow the specification.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro._limits import TURN_POOL_BITS
from repro.fabric.crc import crc8

#: Serialized size of the route header in bytes.
HEADER_BYTES = 16

_STRUCT = struct.Struct(">IIQ")  # dword0, dword1, 64-bit pool

#: Largest value of each bit field, in the order ``validate`` names
#: the first one out of range.
_FIELD_MAX = (("pi", 0xFF), ("tc", 0x7), ("direction", 0x1), ("oo", 0x1),
              ("ts", 0x1), ("credits_required", 0x1F),
              ("turn_pointer", 0x7F), ("fecn", 0x1), ("perr", 0x1))
_POOL_LIMIT = 1 << TURN_POOL_BITS


class HeaderError(ValueError):
    """Raised when a header fails validation or CRC check."""


@dataclass
class RouteHeader:
    """A decoded ASI route header.

    Attributes
    ----------
    pi:
        Protocol interface of the payload (0-255).
    tc:
        Traffic class (0-7).
    direction:
        0 = forward route (turn pointer counts down to 0),
        1 = backward route (turn pointer counts up).
    oo:
        Ordered-only bit; 1 forbids use of a BVC bypass queue.
    ts:
        Type-specific bypass hint; management packets set ``ts=1`` so
        they can overtake application traffic in BVC bypass queues.
    credits_required:
        Packet size in credit units (0-31), filled by the sender.
    turn_pointer:
        Current position in the turn pool (0-``TURN_POOL_BITS``).
    turn_pool:
        The packed source route.
    fecn / perr:
        Congestion-notification and poisoned bits (modeled, unused by
        the discovery study but kept for header fidelity).
    """

    pi: int = 0
    tc: int = 0
    direction: int = 0
    oo: int = 0
    ts: int = 0
    credits_required: int = 0
    turn_pointer: int = 0
    turn_pool: int = 0
    fecn: int = 0
    perr: int = 0

    #: ``(fields, bytes)`` of the last :meth:`pack`, valid while the
    #: fields still equal the key — plain attribute stores (the
    #: switches rewrite ``turn_pointer`` at every hop) cost nothing.
    _memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _fields(self) -> tuple:
        """The ten fields in constructor order."""
        return (self.pi, self.tc, self.direction, self.oo, self.ts,
                self.credits_required, self.turn_pointer, self.turn_pool,
                self.fecn, self.perr)

    def validate(self) -> None:
        """Check every field is within its bit width."""
        if (0 <= self.pi <= 0xFF and 0 <= self.tc <= 0x7
                and 0 <= self.direction <= 0x1 and 0 <= self.oo <= 0x1
                and 0 <= self.ts <= 0x1
                and 0 <= self.credits_required <= 0x1F
                and 0 <= self.turn_pointer <= TURN_POOL_BITS
                and 0 <= self.fecn <= 0x1 and 0 <= self.perr <= 0x1
                and 0 <= self.turn_pool < _POOL_LIMIT):
            return
        for name, limit in _FIELD_MAX:
            if not 0 <= (value := getattr(self, name)) <= limit:
                raise HeaderError(f"{name}={value} outside [0, {limit}]")
        if self.turn_pointer > TURN_POOL_BITS:
            raise HeaderError(
                f"turn_pointer={self.turn_pointer} exceeds pool width"
            )
        raise HeaderError("turn_pool outside 64-bit range")

    #: Construction validates: the generated ``__init__`` calls this.
    __post_init__ = validate

    # -- serialization -----------------------------------------------------
    def _pack_words(self, hcrc: int) -> bytes:
        dword0 = (
            (self.pi << 24)
            | (self.tc << 21)
            | (self.direction << 20)
            | (self.oo << 19)
            | (self.ts << 18)
            | (self.turn_pointer << 11)
            | (0 << 8)  # reserved
            | hcrc
        )
        dword1 = (
            (self.credits_required << 27)
            | (self.fecn << 26)
            | (self.perr << 25)
        )
        return _STRUCT.pack(dword0, dword1, self.turn_pool)

    def pack(self) -> bytes:
        """Serialize to ``HEADER_BYTES`` bytes, computing the header CRC.

        The serialization (including the CRC-8) is memoized under the
        field values it was made from, so repeated packs of an
        unmodified header cost one tuple comparison.
        """
        key = self._fields()
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1]
        self.validate()
        raw = self._pack_words(hcrc=0)
        packed = self._pack_words(hcrc=crc8(raw))
        self._memo = (key, packed)
        return packed

    @classmethod
    def unpack(cls, data: bytes, check_crc: bool = True) -> "RouteHeader":
        """Decode a header from bytes, verifying the CRC by default."""
        if len(data) < HEADER_BYTES:
            raise HeaderError(
                f"need {HEADER_BYTES} bytes, got {len(data)}"
            )
        dword0, dword1, pool = _STRUCT.unpack(data[:HEADER_BYTES])
        header = cls(
            pi=(dword0 >> 24) & 0xFF,
            tc=(dword0 >> 21) & 0x7,
            direction=(dword0 >> 20) & 0x1,
            oo=(dword0 >> 19) & 0x1,
            ts=(dword0 >> 18) & 0x1,
            turn_pointer=(dword0 >> 11) & 0x7F,
            credits_required=(dword1 >> 27) & 0x1F,
            fecn=(dword1 >> 26) & 0x1,
            perr=(dword1 >> 25) & 0x1,
            turn_pool=pool,
        )
        if check_crc:
            expected = dword0 & 0xFF
            actual = crc8(header._pack_words(hcrc=0))
            if expected != actual:
                raise HeaderError(
                    f"header CRC mismatch: stored {expected:#04x}, "
                    f"computed {actual:#04x}"
                )
        return header

    # -- helpers -------------------------------------------------------------
    def copy(self) -> "RouteHeader":
        """Return an independent copy."""
        return RouteHeader(*self._fields())

    def reversed(self) -> "RouteHeader":
        """Header for a completion traveling back along this route.

        Per the specification, a response reuses the request's turn pool
        and traffic class, flips the direction bit, and resets the turn
        pointer to the position the forward traversal finished at (0).
        """
        if self.direction != 0:
            raise HeaderError("can only reverse a forward header")
        return RouteHeader(self.pi, self.tc, 1, self.oo, self.ts,
                           self.credits_required, 0, self.turn_pool,
                           self.fecn, self.perr)
