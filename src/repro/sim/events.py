"""Event primitives for the discrete-event simulation kernel.

The kernel is organized around :class:`Event` objects.  An event moves
through three states:

* *pending* — created but not yet scheduled;
* *triggered* — given a value (or an exception) and placed on the
  environment's event heap;
* *processed* — popped from the heap; all callbacks have run.

Processes (see :mod:`repro.sim.process`) communicate exclusively by
yielding events and by succeeding/failing them.
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
        The :class:`~repro.sim.core.Environment` the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled")

    def __init__(self, env):
        self.env = env
        #: Callables invoked with the event once it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
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
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError("value of event is not yet available")
        return self._ok

    @property
    def value(self):
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("value of event is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure was handled and must not crash the run."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env.schedule(self)`` — succeed() is the kernel's
        # hottest trigger path.
        env = self.env
        heappush(env._queue, (env.now, NORMAL, next(env._eid), self, None))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception re-raised at their
        ``yield`` statement.  If nobody handles it, the simulation run
        crashes (unless the event is *defused*).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env.now, NORMAL, next(env._eid), self, None))
        return self


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Hot path: tens of thousands of timers per run.  Assign state
        # directly and push onto the heap in place (same entry a call
        # to ``env.schedule`` would produce) instead of chaining
        # through ``Event.__init__`` + ``Environment.schedule``.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        heappush(
            env._queue,
            (env.now + delay, NORMAL, next(env._eid), self, None),
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay}>"


class Deferred:
    """Minimal heap entry for a cancellable callback.

    Carries exactly the state ``Environment.step`` touches — a
    callbacks list plus the ok/defused/cancelled flags — and nothing
    else, so ``Environment.schedule_callback`` can skip the full
    :class:`Timeout` construction path.  A ``Deferred`` is a cancel
    handle, not an event: processes cannot yield on it and it has no
    value accessors.  (A timer that is never cancelled needs no handle
    at all: ``Environment.call_later``.)
    """

    __slots__ = ("callbacks", "_cancelled")

    #: The rest of what ``Environment.step`` and ``cancel`` read of an
    #: event: a ``Deferred`` has always succeeded, with no value.
    _value = None
    _ok = True
    _defused = False

    def __init__(self, fn: Callable[["Deferred"], None]):
        self.callbacks: Optional[List[Callable]] = [fn]
        self._cancelled = False

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "processed" if self.callbacks is None else "scheduled"
        return f"<Deferred {state} at {id(self):#x}>"


class Initialize(Event):
    """Immediately-scheduled event used to start a new process."""

    __slots__ = ()

    def __init__(self, env, process):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)
