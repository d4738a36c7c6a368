"""Packet tracing: the one recorder of per-hop packet events.

OPNET-style debugging support and the capture buffer of the timeline
exporters in one class: attach a :class:`PacketTracer` to a fabric and
every injection, enqueue, transmission, reception, forwarding
decision, drop, link replay and delivery — each a call of the device
trace hook ``hook(kind, device, port_index, packet, detail)`` from the
port/device hot paths — is recorded as a flat, timestamped
:class:`PacketHop`.  Filters keep the volume down (by PI, by device)
and helpers reconstruct the path a given packet took, which is how
several of this repository's own routing tests assert that packets
really travel the route their turn pool encodes.

One retention policy: the newest ``limit`` hops are kept and the ones
that fell off are *counted* (``overflowed``), so a truncated capture is
never mistaken for a complete one.  Purely passive: never schedules
events, never touches an RNG.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Set

from ..sim.monitor import Counter
from .fabric import Fabric
from .packet import Packet

#: Default capture capacity.  A full mesh16 discovery produces a few
#: thousand management-packet hops; the default leaves two orders of
#: magnitude of headroom before the oldest fall off.
DEFAULT_LIMIT = 200_000


class PacketHop:
    """One observed packet event.  ``kind`` is, in rough lifecycle
    order, ``inject``, ``enqueue`` (the packet enters a port's transmit
    path, before arbitration), ``tx`` (it goes on the wire), ``rx``,
    ``forward``, ``drop`` or ``deliver``; ``seq`` numbers the hops a
    tracer accepted, including those it no longer holds."""

    __slots__ = ("time", "kind", "device", "port", "packet_id", "pi",
                 "detail", "seq")

    def __init__(self, time: float, kind: str, device: str,
                 port: Optional[int], packet_id: int, pi: int,
                 detail: str, seq: int):
        self.time = time
        self.kind = kind
        self.device = device
        self.port = port
        self.packet_id = packet_id
        self.pi = pi
        self.detail = detail
        self.seq = seq

    def render(self) -> str:
        port = "" if self.port is None else f".p{self.port}"
        detail = f"  {self.detail}" if self.detail else ""
        return (
            f"{self.time * 1e6:12.3f}us  {self.kind:<8s} "
            f"pkt#{self.packet_id:<6d} pi={self.pi:<3d} "
            f"{self.device}{port}{detail}"
        )


class PacketTracer:
    """Device trace hook recording packet hops.

    Parameters
    ----------
    limit:
        Capacity; beyond it the oldest hops fall off and are counted
        in ``overflowed``.
    pi_filter:
        If given, only packets with these PI values are recorded.
    """

    def __init__(self, limit: int = DEFAULT_LIMIT,
                 pi_filter: Optional[Iterable[int]] = None):
        if limit < 1:
            raise ValueError("tracer needs room for at least one hop")
        self.hops: Deque[PacketHop] = deque(maxlen=limit)
        self.pi_filter: Optional[Set[int]] = (
            set(pi_filter) if pi_filter is not None else None
        )
        self.dropped_by_filter = 0
        self.overflowed = 0

    # -- hook (called from the fabric hot paths) -----------------------------
    def __call__(self, kind: str, device, port_index: Optional[int],
                 packet: Packet, detail: str = "") -> None:
        pi = packet.header.pi
        if self.pi_filter is not None and pi not in self.pi_filter:
            self.dropped_by_filter += 1
            return
        hops = self.hops
        seq = len(hops) + self.overflowed
        if len(hops) == hops.maxlen:
            self.overflowed += 1
        hops.append(PacketHop(device.env.now, kind, device.name, port_index,
                              packet.pkt_id, pi, detail, seq))

    # -- attachment -----------------------------------------------------------
    def attach(self, fabric: Fabric) -> "PacketTracer":
        """Install this tracer on every device of ``fabric``."""
        for device in fabric.devices.values():
            device.trace_hook = self
        return self

    @staticmethod
    def detach(fabric: Fabric) -> None:
        """Remove any tracer from ``fabric``."""
        for device in fabric.devices.values():
            device.trace_hook = None

    # -- queries -----------------------------------------------------------------
    def events_for(self, packet_id: int) -> List[PacketHop]:
        """All held hops of one packet, in time order."""
        return [hop for hop in self.hops if hop.packet_id == packet_id]

    def path_of(self, packet_id: int) -> List[str]:
        """Devices a packet visited (inject/rx/deliver hops)."""
        path: List[str] = []
        for hop in self.events_for(packet_id):
            if hop.kind in ("inject", "rx", "deliver"):
                if not path or path[-1] != hop.device:
                    path.append(hop.device)
        return path

    def devices(self) -> List[str]:
        """Distinct device names seen, sorted (stable track order)."""
        return sorted({hop.device for hop in self.hops})

    def counts(self) -> Counter:
        """Held hops per kind (a kind never seen reads 0)."""
        result = Counter()
        for hop in self.hops:
            result.incr(hop.kind)
        return result

    def render(self, last: Optional[int] = None) -> str:
        """The trace (or its last ``last`` hops) as text."""
        hops = list(self.hops)
        if last is not None:
            hops = hops[max(len(hops) - last, 0):]
        return "\n".join(hop.render() for hop in hops)

    def __len__(self) -> int:
        return len(self.hops)
