"""Parallel discovery: propagation-order exploration (Fig. 3).

"Discovery packets spread throughout the fabric in an uncontrolled way.
The FM sends new PI-4 packets as soon as it receives responses to
previous requests ... the order in which devices are discovered is not
deterministic" (paper, section 3.3).  The exploration queue of the
serial algorithms is replaced by a table of pending packets (kept by
the FM's request layer); discovery completes when that table empties.

The propagation-order algorithm is the classic one of Rodeheffer &
Schroeder's Autonet reconfiguration (paper reference [9]).

An optional *window* bounds the number of outstanding requests (a real
FM implementation has finite request state).  Small windows move the
Fig. 8(b) device-speed knee inward — with ``window=4`` the Parallel
time rises visibly by device factor 0.1 — but in this timing regime
(T_FM well above the round trip) no window short of full serialization
reproduces the paper's knee at factor 1/3; see EXPERIMENTS.md.  Set it
with ``FabricManager(parallel_window=...)``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..database import DeviceRecord
from ..timing import PARALLEL
from .base import DiscoveryAlgorithm, Target


class ParallelDiscovery(DiscoveryAlgorithm):
    """Unconstrained (or windowed) propagation-order exploration."""

    key = PARALLEL

    def __init__(self, fm, window: Optional[int] = None):
        super().__init__(fm)
        if window is None:
            window = getattr(fm, "parallel_window", None)
        if window is not None and window < 1:
            raise ValueError("parallel window must be at least 1")
        #: Maximum outstanding requests (None = unbounded, per Fig. 3).
        self.window = window
        #: Dispatches waiting for the window (an unbounded one never
        #: queues, and owns no deque).
        self._backlog: Optional[Deque[Tuple]] = (
            None if window is None else deque())

    # -- windowing ------------------------------------------------------
    def _dispatch(self, fn, *args) -> None:
        if self.window is None or self._outstanding < self.window:
            fn(*args)
        else:
            self._backlog.append((fn, args))

    def _drain(self) -> None:
        # Only a windowed run has a backlog.
        while self._backlog and self._outstanding < self.window:
            fn, args = self._backlog.popleft()
            fn(*args)

    # -- scheduling hooks ---------------------------------------------------
    def on_new_device(self, record: DeviceRecord) -> None:
        for index in range(record.nports):
            self._dispatch(self._send_port_read, record, index)

    def on_new_target(self, target: Target) -> None:
        self._dispatch(self._send_general, target)

    def on_port_done(self, record: DeviceRecord, index: int) -> None:
        self._drain()

    def on_device_done(self) -> None:
        self._drain()

    def _has_backlog(self) -> bool:
        return bool(self._backlog)
