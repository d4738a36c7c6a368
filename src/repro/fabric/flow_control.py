"""Credit-based link-level flow control (PCI Express style).

Each transmitting port keeps a :class:`CreditCounter` per virtual
channel mirroring the free space of the receiver's input buffer for
that VC.  Transmission of a packet consumes ``credits_required`` units;
the receiver returns the units once the packet leaves its input buffer
(forwarded by a switch or consumed by an endpoint), and the returned
credits become visible to the sender one propagation delay later.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..sim.core import Environment
from ..sim.events import Event


class CreditError(RuntimeError):
    """Raised on credit-accounting violations (over-release, oversized)."""


class CreditCounter:
    """Available credit units for one (link direction, VC) pair.

    ``consume(n)`` returns an event that triggers once ``n`` units have
    been reserved; grants are strictly FIFO so a large packet cannot be
    starved by a stream of small ones.
    """

    __slots__ = ("env", "capacity", "available", "_waiters")

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1 credit")
        self.env = env
        self.capacity = capacity
        self.available = capacity
        self._waiters: Deque[Tuple[int, Event]] = deque()

    def consume(self, units: int) -> Event:
        """Reserve ``units`` credits; event triggers when granted."""
        if units < 1:
            raise ValueError("must consume at least one credit")
        if units > self.capacity:
            raise CreditError(
                f"packet needs {units} credits but receive buffer only "
                f"holds {self.capacity}; increase rx_buffer_credits or "
                f"lower max_payload"
            )
        event = Event(self.env)
        if not self._waiters and units <= self.available:
            # Fast path (the overwhelmingly common case in a healthy
            # fabric): grant immediately.  The event is returned already
            # *processed* — nobody can have registered a callback on a
            # brand-new event, so scheduling it onto the heap would only
            # burn an event slot to run an empty callback list.
            self.available -= units
            event.callbacks = None
            event._value = units
        else:
            self._waiters.append((units, event))
            self._grant()
        return event

    def take(self, units: int) -> None:
        """Reserve ``units`` credits the caller has seen are available.

        The arbiter's path: it only picks a packet whose credits are
        free, so there is nothing to wait for and no grant event to
        allocate.
        """
        if units < 1:
            raise ValueError("must consume at least one credit")
        if self._waiters or units > self.available:
            raise CreditError(
                f"take({units}) with {self.available} credits available "
                f"and {len(self._waiters)} grants queued"
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
        if self._waiters:
            self._grant()

    def _grant(self) -> None:
        while self._waiters and self._waiters[0][0] <= self.available:
            units, event = self._waiters.popleft()
            self.available -= units
            event.succeed(units)

    def reset(self) -> None:
        """Resynchronize to full capacity, abandoning queued grants.

        Used on link down/retrain: in-flight packets are lost, so the
        mirror returns to the receiver's empty-buffer state and waiting
        grant events are dropped without triggering (their packets were
        flushed from the VC queues by the same transition).
        """
        self.available = self.capacity
        self._waiters.clear()

    @property
    def in_use(self) -> int:
        """Credits currently held by in-flight packets."""
        return self.capacity - self.available

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<CreditCounter {self.available}/{self.capacity} "
            f"waiters={len(self._waiters)}>"
        )
