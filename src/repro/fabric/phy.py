"""Physical links: x1 serial lanes connecting two device ports.

A link carries packets in both directions independently.  Each
direction is serialized by the owning :class:`~repro.fabric.port.Port`;
the link contributes the wire propagation delay and the up/down state
that the discovery process ultimately probes.

Cut-through timing: the head of a packet arrives at the far side after
``tx_time(header) + propagation_delay``; the tail follows after the
rest of the serialization time.  Switches act on the head (virtual
cut-through), endpoints wait for the tail (full reception).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..sim.core import Environment
from .crc import crc32
from .header import HEADER_BYTES
from .params import FabricParams


class LinkError(RuntimeError):
    """Raised on invalid link wiring or use."""


#: Delivery verdicts produced by :meth:`LinkErrorModel.classify`.
DELIVER_OK = 0
DELIVER_LOST = 1
DELIVER_CORRUPT = 2


class LinkErrorModel:
    """Seeded, deterministic per-link channel error process.

    Converts a bit error rate into a per-packet corruption probability
    (``1 - (1 - BER)^bits``), layered under an independent whole-packet
    loss probability and an optional link-layer duplication (replay)
    probability.  Corruption is realized by actually flipping bits in
    the packet's wire serialization, so the receive side exercises the
    real header-CRC/PCRC machinery instead of a synthetic drop flag.

    Each link owns one model whose RNG stream is derived from the
    fabric-wide ``error_seed`` and the link's name (via CRC-32, not
    ``hash()``, which is salted per process) — runs are bit-for-bit
    reproducible across processes and sweep workers.  A link with all
    rates at zero gets no model at all (``Link.error_model is None``),
    so the perfect-channel fast path draws no random numbers and
    schedules no extra events.
    """

    __slots__ = ("rng", "bit_error_rate", "packet_loss_rate",
                 "duplicate_rate", "burst_length", "_corrupt_cache",
                 "corrupted", "lost", "duplicated")

    def __init__(self, bit_error_rate: float, packet_loss_rate: float,
                 duplicate_rate: float, burst_length: float, seed: int):
        self.rng = random.Random(seed)
        self.bit_error_rate = bit_error_rate
        self.packet_loss_rate = packet_loss_rate
        self.duplicate_rate = duplicate_rate
        self.burst_length = burst_length
        #: Packet sizes repeat heavily (requests, completions, events),
        #: so the per-size corruption probability is memoized.
        self._corrupt_cache: Dict[int, float] = {}
        self.corrupted = 0
        self.lost = 0
        self.duplicated = 0

    @classmethod
    def for_link(cls, params: FabricParams,
                 name: str) -> Optional["LinkErrorModel"]:
        """Build the model for a named link, or None on a perfect channel."""
        if not params.lossy:
            return None
        seed = (params.error_seed << 32) ^ crc32(name.encode("utf-8"))
        return cls(
            bit_error_rate=params.bit_error_rate,
            packet_loss_rate=params.packet_loss_rate,
            duplicate_rate=params.duplicate_rate,
            burst_length=params.error_burst_length,
            seed=seed,
        )

    def corrupt_probability(self, size_bytes: int) -> float:
        """Per-packet corruption probability for a wire size."""
        cached = self._corrupt_cache.get(size_bytes)
        if cached is None:
            cached = 1.0 - (1.0 - self.bit_error_rate) ** (8 * size_bytes)
            self._corrupt_cache[size_bytes] = cached
        return cached

    def classify(self, size_bytes: int) -> int:
        """Fate of one delivered packet (single uniform draw).

        The draw is partitioned: whole-packet loss first (the framing
        never locks, nothing arrives), then BER-driven corruption.
        """
        draw = self.rng.random()
        if draw < self.packet_loss_rate:
            self.lost += 1
            return DELIVER_LOST
        if self.bit_error_rate > 0.0:
            if draw < self.packet_loss_rate + self.corrupt_probability(
                size_bytes
            ) * (1.0 - self.packet_loss_rate):
                self.corrupted += 1
                return DELIVER_CORRUPT
        return DELIVER_OK

    def duplicate(self) -> bool:
        """Whether the link layer replays this transmission.

        Only called (and only draws) when ``duplicate_rate > 0``, so
        enabling BER alone leaves the RNG stream identical to a
        BER-only configuration.
        """
        if self.rng.random() < self.duplicate_rate:
            self.duplicated += 1
            return True
        return False

    def corrupt_bytes(self, data: bytes) -> Tuple[bytes, int]:
        """Flip a burst of bits in ``data``; returns (corrupted, flips).

        The burst length is geometric with the configured mean, the
        classic model for correlated symbol errors on serial lanes.
        """
        rng = self.rng
        flips = 1
        if self.burst_length > 1.0:
            carry_on = 1.0 - 1.0 / self.burst_length
            while rng.random() < carry_on:
                flips += 1
        corrupted = bytearray(data)
        nbits = 8 * len(corrupted)
        for _ in range(flips):
            bit = rng.randrange(nbits)
            corrupted[bit >> 3] ^= 1 << (bit & 0x7)
        return bytes(corrupted), flips


class Link:
    """A bidirectional x1 serial link between two ports.

    Links are created by :meth:`repro.fabric.fabric.Fabric.connect`,
    which also attaches the two ports.
    """

    def __init__(self, env: Environment, params: FabricParams,
                 name: str = ""):
        self.env = env
        self.params = params
        self.name = name
        self.a_port = None  # type: Optional[object]
        self.b_port = None  # type: Optional[object]
        self.up = False
        #: Incremented on every down transition; in-flight deliveries
        #: from a previous epoch are dropped on arrival.
        self.epoch = 0
        #: Channel error process, or None on a perfect channel (the
        #: default).  The model survives link flaps: retraining does
        #: not reset the error stream.
        self.error_model = LinkErrorModel.for_link(params, name)

    # -- wiring -----------------------------------------------------------
    def attach(self, a_port, b_port) -> None:
        """Connect the two endpoints of the link."""
        if self.a_port is not None or self.b_port is not None:
            raise LinkError(f"link {self.name!r} already attached")
        if a_port is b_port:
            raise LinkError("cannot attach a link to one port twice")
        self.a_port = a_port
        self.b_port = b_port
        a_port.attach_link(self)
        b_port.attach_link(self)

    def other(self, port):
        """The port at the far end of the link from ``port``."""
        if port is self.a_port:
            return self.b_port
        if port is self.b_port:
            return self.a_port
        raise LinkError(f"{port!r} is not attached to link {self.name!r}")

    # -- timing -------------------------------------------------------------
    def head_latency(self) -> float:
        """Time from transmission start until the header has arrived."""
        return (
            self.params.tx_time(self.params.framing_overhead + HEADER_BYTES)
            + self.params.propagation_delay
        )

    # -- state ---------------------------------------------------------------
    def take_down(self) -> None:
        """Fail the link; both ports observe a port-state change."""
        if not self.up:
            return
        self.up = False
        self.epoch += 1
        for port in (self.a_port, self.b_port):
            if port is not None:
                port.on_link_state(False)

    def bring_up(self) -> None:
        """Restore the link (both attached devices must be active)."""
        if self.up:
            return
        if self.a_port is None or self.b_port is None:
            raise LinkError(f"link {self.name!r} is not attached")
        if not (self.a_port.device.active and self.b_port.device.active):
            return  # stays down until both ends are alive
        self.up = True
        for port in (self.a_port, self.b_port):
            port.on_link_state(True)

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Link {self.name!r} {state}>"
