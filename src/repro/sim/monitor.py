"""Lightweight instrumentation helpers for simulations: named event
counts (:class:`Counter`) and streaming summary statistics
(:class:`Tally`), neither of which stores a trace.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, Optional


class Counter:
    """A named bundle of monotonically increasing integer counters.

    ``incr`` sits on the per-packet hot path of every port and switch,
    so it is *pre-resolved* at construction time: the instance carries
    a closure over its own counts dict (no ``self`` re-resolution per
    call), and attaching an observer swaps in an observing closure
    instead of adding an ``if observer is not None`` branch that every
    unobserved packet would pay for.
    """

    __slots__ = ("_counts", "_observer", "incr")

    def __init__(self):
        #: A defaultdict so the hot path is one in-place add, no lookup
        #: call; reads go through ``get`` and never insert.
        self._counts: Dict[str, int] = defaultdict(int)
        self._observer: Optional[Callable[[str, int], None]] = None
        self._rebind()

    def _rebind(self) -> None:
        """(Re)build the ``incr`` fast path for the current observer."""
        counts = self._counts
        observer = self._observer
        if observer is None:

            def incr(key: str, amount: int = 1) -> None:
                counts[key] += amount

        else:

            def incr(key: str, amount: int = 1) -> None:
                counts[key] += amount
                observer(key, amount)

        self.incr = incr

    def attach_observer(
        self, observer: Optional[Callable[[str, int], None]]
    ) -> None:
        """Call ``observer(key, amount)`` on every increment.

        Pass ``None`` to detach and restore the zero-overhead path.
        """
        self._observer = observer
        self._rebind()

    @property
    def observer(self) -> Optional[Callable[[str, int], None]]:
        return self._observer

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def asdict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Counter({self._counts!r})"


class Tally:
    """Streaming mean/variance/min/max of observations (Welford)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self):
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.n == 0:
            return "Tally(empty)"
        return f"Tally(n={self.n}, mean={self._mean:.6g}, sd={self.stdev:.6g})"
