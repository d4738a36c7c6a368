"""Event primitives for the discrete-event simulation kernel.

The kernel is organized around :class:`Event` objects.  An event moves
through three states:

* *pending* — created but not yet scheduled;
* *triggered* — given a value and placed on the environment's event
  heap;
* *processed* — popped from the heap; all callbacks have run.

An event only ever succeeds: there is no failure state.  Code that
raises inside a callback crashes :meth:`Environment.run
<repro.sim.core.Environment.run>` at that instant.

An event on the heap holds no reference to its environment: ``env`` is
only what :meth:`Event.succeed` needs to push the event, and it lets go
of it as it does (the kernel builds the events it pushes triggered,
``timeout`` and ``run``'s ``until``, with no ``env`` at all).  So an
environment dropped with events still pending is freed by reference
counting alone, not left to the cyclic collector.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

from .errors import SimulationError

#: Scheduling priorities.  Lower sorts earlier at equal simulation time.
URGENT = 0
NORMAL = 1

#: Sentinel distinguishing "not yet triggered" from "triggered with None".
PENDING = object()


class Event:
    """A one-shot occurrence that other entities can wait for.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.core.Environment` the event will be
        pushed on; ``None`` once it is (or for an event built
        triggered).
    """

    __slots__ = ("env", "callbacks", "_value", "_cancelled")

    def __init__(self, env):
        self.env = env
        #: Callables invoked with the event once it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        #: Lazy-cancellation tombstone flag (see ``Environment.cancel``).
        self._cancelled: bool = False

    def __repr__(self):  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._value is PENDING
            else ("processed" if self.callbacks is None else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the heap."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def value(self):
        """The value the event succeeded with."""
        if self._value is PENDING:
            raise SimulationError("value of event is not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        # Pushed in place: succeed() is the kernel's hottest trigger
        # path.  A triggered event never succeeds again, so it lets go
        # of its environment here: no heap entry leads back to it.
        env, self.env = self.env, None
        heappush(env._queue, (env.now, NORMAL, next(env._eid), self, None))
        return self


class Deferred:
    """Minimal heap entry for a cancellable callback.

    Carries exactly the state ``Environment.step`` touches — a
    callbacks list plus the cancelled flag — and nothing else, so
    ``Environment.schedule_callback`` can skip full :class:`Event`
    construction.  A ``Deferred`` is a cancel handle, not an event: a
    process cannot yield on it and it has no value accessors.  (A timer
    that is never cancelled needs no handle at all:
    ``Environment.call_later``.)
    """

    __slots__ = ("callbacks", "_cancelled")

    #: The rest of what ``Environment.cancel`` reads of an event (and
    #: what a process started in this slot is sent): no value.
    _value = None

    def __init__(self, fn: Callable[["Deferred"], None]):
        self.callbacks: Optional[List[Callable]] = [fn]
        self._cancelled = False
