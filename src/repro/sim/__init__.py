"""A self-contained discrete-event simulation kernel.

This subpackage replaces the OPNET Modeler kernel used by the paper
(and the ``simpy`` library, unavailable offline) with the minimum the
models need: an event heap with argument-carrying and cancellable
timers, one-shot events, and generator processes for loop-shaped
workloads.

Quick example::

    from repro.sim import Environment

    env = Environment()

    def tick(period):
        print(env.now)
        env.call_later(period, tick, period)

    env.call_later(1.0, tick, 1.0)
    env.run(until=3.5)
"""

from .core import Environment, Infinity
from .errors import EmptySchedule, SimulationError
from .events import Deferred, Event, Timeout
from .monitor import Counter
from .process import Process

__all__ = [
    "Counter",
    "Deferred",
    "EmptySchedule",
    "Environment",
    "Event",
    "Infinity",
    "Process",
    "SimulationError",
    "Timeout",
]
