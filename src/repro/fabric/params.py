"""Configuration parameters of the modeled ASI fabric.

All timing values are seconds; all sizes are bytes unless stated
otherwise.  Defaults follow the paper's simulation model: x1 ASI links
(2.5 Gbps raw, 2.0 Gbps effective after 8b/10b encoding), 16-port
multiplexed virtual cut-through switches, and 1-port endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Tuple


@dataclass(frozen=True)
class FabricParams:
    """Immutable bundle of fabric-wide hardware parameters."""

    #: Raw signaling rate of an x1 link in bits per second.
    raw_bit_rate: float = 2.5e9
    #: 8b/10b encoding efficiency: effective data rate multiplier.
    encoding_efficiency: float = 0.8
    #: Wire propagation delay per link (chip-to-chip / backplane).
    propagation_delay: float = 5e-9
    #: Switch routing-decision latency per hop (virtual cut-through:
    #: applied once the header has been received).
    routing_latency: float = 40e-9
    #: Link-layer framing overhead added to every packet (start/end
    #: symbols, sequence number, LCRC), PCI Express style.
    framing_overhead: int = 8
    #: End-to-end payload CRC appended when a payload is present.
    pcrc_bytes: int = 4
    #: Size of one flow-control credit unit.
    credit_unit: int = 64
    #: Receive-buffer capacity per virtual channel, in credit units.
    rx_buffer_credits: int = 16
    #: Number of virtual channels implemented at every port.
    vc_count: int = 2
    #: Virtual-channel types per VC index ("bvc", "ovc", or "mvc").
    #: Empty tuple = all BVCs (the default; management packets rely on
    #: BVC bypass queues for their priority).  The single-OVC ablation
    #: (A1 of ``tests/claims.py``) uses it to study what the VC design
    #: buys.
    vc_types: Tuple[str, ...] = ()
    #: TC -> VC mapping table (indexed by the 3-bit traffic class).
    #: Default: application classes 0-3 on VC0, management classes on
    #: VC1, which the arbiter serves with strict priority — this is how
    #: the paper justifies that application traffic scarcely affects
    #: discovery time.
    tc_vc_map: Tuple[int, ...] = (0, 0, 0, 0, 1, 1, 1, 1)
    #: Maximum payload size (bytes).
    max_payload: int = 2048
    #: Ports on a fabric switch (the paper's model uses 16).
    switch_ports: int = 16
    #: Ports on a fabric endpoint (the paper's model uses 1; spec max 4).
    endpoint_ports: int = 1
    #: Per-bit probability that a bit of a packet is corrupted on the
    #: wire (BER).  Corrupted packets fail the header-CRC/PCRC check at
    #: the receiving port and are dropped (the discovery protocol's
    #: transaction engine retries them).  0 = the paper's perfect
    #: channel; the lossy path is completely skipped in that case.
    bit_error_rate: float = 0.0
    #: Per-packet probability that the packet vanishes entirely (framing
    #: never detected; no CRC check even runs).
    packet_loss_rate: float = 0.0
    #: Per-packet probability that the link layer delivers a second copy
    #: (replay), exercising duplicate suppression at the responder.
    duplicate_rate: float = 0.0
    #: Mean number of bit errors per corruption event (geometric burst;
    #: 1.0 = independent single-bit errors).
    error_burst_length: float = 1.0
    #: Seed for the per-link error-model RNG streams.  Every link
    #: derives its own deterministic stream from this seed and its
    #: name, so runs are reproducible regardless of worker scheduling.
    error_seed: int = 0

    def __post_init__(self):
        if not self.tc_vc_map or len(self.tc_vc_map) != 8:
            raise ValueError("tc_vc_map must have 8 entries")
        if any(vc < 0 or vc >= self.vc_count for vc in self.tc_vc_map):
            raise ValueError("tc_vc_map references an unimplemented VC")
        if self.vc_count < 1:
            raise ValueError("need at least one virtual channel")
        if self.rx_buffer_credits < 1:
            raise ValueError("need at least one receive credit")
        if self.vc_types:
            if len(self.vc_types) != self.vc_count:
                raise ValueError(
                    "vc_types must name a type per virtual channel"
                )
            bad = [t for t in self.vc_types if t not in ("bvc", "ovc", "mvc")]
            if bad:
                raise ValueError(f"unknown VC types: {bad}")
        for name in ("bit_error_rate", "packet_loss_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name}={rate} outside [0, 1)")
        if self.error_burst_length < 1.0:
            raise ValueError("error_burst_length must be at least 1")

    @property
    def lossy(self) -> bool:
        """Whether any link-error mode is enabled (the unreliable path
        is bypassed entirely when this is False)."""
        return (
            self.bit_error_rate > 0.0
            or self.packet_loss_rate > 0.0
            or self.duplicate_rate > 0.0
        )

    def to_dict(self) -> dict:
        """JSON/pickle-ready rendering (for spawn-safe job descriptions)."""
        return {
            field_name: list(value) if isinstance(value, tuple) else value
            for field_name, value in (
                (f.name, getattr(self, f.name)) for f in fields(self)
            )
        }

    @classmethod
    def from_dict(cls, document: dict) -> "FabricParams":
        """Rebuild parameters from :meth:`to_dict` output.

        Unknown keys raise :class:`ValueError` — a misspelled
        error-model field silently reverting to the perfect channel
        would invalidate a whole sweep.
        """
        kwargs = dict(document)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(
                f"unknown FabricParams fields: {', '.join(unknown)}"
            )
        for name in ("vc_types", "tc_vc_map"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    @property
    def data_rate(self) -> float:
        """Effective data rate in bits per second (after encoding)."""
        return self.raw_bit_rate * self.encoding_efficiency

    def tx_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` on an x1 link."""
        return nbytes * 8.0 / self.data_rate


#: Traffic class used by fabric-management packets.  Management and
#: notification packets use the highest class, which maps to the
#: strict-priority VC (paper, section 4.1).
MANAGEMENT_TC = 7

#: Traffic class used by the background application-traffic generator.
APPLICATION_TC = 0

DEFAULT_PARAMS = FabricParams()
