"""Virtual channels and TC/VC mapping.

The specification defines three VC types (section 2 of the paper):

* **BVC** — unicast bypassable: an ordered queue plus a *bypass* queue.
  Packets marked bypassable (``ts=1`` and ``oo=0`` in the route header)
  enter the bypass queue and may overtake packets in the ordered queue.
* **OVC** — unicast ordered: a single ordered queue.
* **MVC** — multicast: a single ordered queue.

Arbiters serve VCs in strict priority order (higher VC index first in
this model, so the management VC preempts application VCs) and serve a
BVC's bypass queue ahead of its ordered queue.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Deque, Iterator, Optional

from .packet import Packet


class VCType(Enum):
    """The three virtual-channel types of the specification."""

    BVC = "bvc"
    OVC = "ovc"
    MVC = "mvc"


class VirtualChannel:
    """One virtual channel's queue(s) at a port.

    Parameters
    ----------
    index:
        VC number at the port.
    vc_type:
        Queue discipline; only :attr:`VCType.BVC` has a bypass queue.
    """

    __slots__ = ("index", "vc_type", "ordered", "bypass")

    def __init__(self, index: int, vc_type: VCType = VCType.BVC):
        self.index = index
        self.vc_type = vc_type
        self.ordered: Deque[Packet] = deque()
        self.bypass: Deque[Packet] = deque()

    def __len__(self) -> int:
        return len(self.ordered) + len(self.bypass)

    def is_bypassable(self, packet: Packet) -> bool:
        """Whether ``packet`` qualifies for this VC's bypass queue."""
        return (
            self.vc_type is VCType.BVC
            and packet.header.ts == 1
            and packet.header.oo == 0
        )

    def push(self, packet: Packet) -> None:
        """Enqueue a packet into the appropriate queue."""
        header = packet.header
        # ``is_bypassable``, spelled out: this runs once per hop.
        if (self.vc_type is VCType.BVC and header.ts == 1
                and header.oo == 0):
            self.bypass.append(packet)
        else:
            self.ordered.append(packet)

    def peek(self) -> Optional[Packet]:
        """Next packet that would be dequeued (bypass first)."""
        if self.bypass:
            return self.bypass[0]
        if self.ordered:
            return self.ordered[0]
        return None

    def pop(self) -> Packet:
        """Dequeue the next packet (bypass queue has precedence)."""
        if self.bypass:
            return self.bypass.popleft()
        if self.ordered:
            return self.ordered.popleft()
        raise IndexError("pop from empty virtual channel")

    def __iter__(self) -> Iterator[Packet]:
        yield from self.bypass
        yield from self.ordered

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<VC{self.index} {self.vc_type.value} "
            f"bypass={len(self.bypass)} ordered={len(self.ordered)}>"
        )


def default_vc_types(vc_count: int) -> list:
    """Default VC type assignment: all BVCs.

    The paper's management packets rely on bypass behaviour; modeling
    every unicast VC as a BVC gives management packets their priority
    path while keeping the arbiter uniform.
    """
    return [VCType.BVC] * vc_count
