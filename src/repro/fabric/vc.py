"""Virtual channels: per-VC transmit queues and credit flow control.

The specification defines three VC types (section 2 of the paper):

* **BVC** — unicast bypassable: an ordered queue plus a *bypass* queue.
  Packets marked bypassable (``ts=1`` and ``oo=0`` in the route header)
  enter the bypass queue and may overtake packets in the ordered queue.
* **OVC** — unicast ordered: a single ordered queue.
* **MVC** — multicast: a single ordered queue.

Arbiters serve VCs in strict priority order (higher VC index first in
this model, so the management VC preempts application VCs) and serve a
BVC's bypass queue ahead of its ordered queue.

Flow control is credit based (PCI Express style): the transmitter
mirrors the free space of the receiver's input buffer for each VC.
Transmission of a packet takes ``credits_required`` units; the
receiver returns them once the packet leaves its input buffer
(forwarded by a switch or consumed by an endpoint), and the returned
credits become visible to the sender one propagation delay later.
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


class CreditError(RuntimeError):
    """Raised on credit-accounting violations (over-release, oversized)."""


class VirtualChannel:
    """One virtual channel's transmit state at a port: its queue(s) and
    the credit mirror of the far side's input buffer for that VC.

    A port creates the record for the first packet it queues on the
    VC, and the record creates a queue at its first append (``None``
    reads as empty): a discovery sends out of every attached port, but
    through one queue of one VC, and an empty ``deque`` is 760 bytes.

    Parameters
    ----------
    index:
        VC number at the port.
    vc_type:
        Queue discipline; only :attr:`VCType.BVC` has a bypass queue.
    capacity:
        The far side's input buffer for this VC, in credit units.
    """

    __slots__ = ("index", "vc_type", "ordered", "bypass", "capacity",
                 "available")

    def __init__(self, index: int, vc_type: VCType, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1 credit")
        self.index = index
        self.vc_type = vc_type
        self.ordered: Optional[Deque[Packet]] = None
        self.bypass: Optional[Deque[Packet]] = None
        self.capacity = capacity
        self.available = capacity

    # -- queues ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ordered or ()) + len(self.bypass or ())

    def push(self, packet: Packet) -> None:
        """Enqueue a packet into the appropriate queue."""
        header = packet.header
        if (self.vc_type is VCType.BVC and header.ts == 1
                and header.oo == 0):
            queue = self.bypass
            if queue is None:
                queue = self.bypass = deque()
        else:
            queue = self.ordered
            if queue is None:
                queue = self.ordered = deque()
        queue.append(packet)

    def __iter__(self) -> Iterator[Packet]:
        yield from self.bypass or ()
        yield from self.ordered or ()

    # -- credits -----------------------------------------------------------
    def take(self, units: int) -> None:
        """Reserve ``units`` credits the caller has seen are available.

        The arbiter only picks a packet whose credits are free, so
        there is nothing to wait for.
        """
        if units < 1:
            raise ValueError("must take at least one credit")
        if units > self.available:
            raise CreditError(
                f"take({units}) with {self.available} credits available"
            )
        self.available -= units

    def release(self, units: int) -> None:
        """Return ``units`` credits (receiver freed buffer space)."""
        if units < 0:
            raise ValueError("cannot release a negative credit count")
        if self.available + units > self.capacity:
            raise CreditError(
                f"credit over-release: {self.available}+{units} exceeds "
                f"capacity {self.capacity}"
            )
        self.available += units

    @property
    def in_use(self) -> int:
        """Credits currently held by in-flight packets."""
        return self.capacity - self.available
