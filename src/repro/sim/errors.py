"""Exception types for the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`.

    Carries the value of the event that terminated the run.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value
