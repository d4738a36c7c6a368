"""A self-contained discrete-event simulation kernel.

This subpackage replaces the OPNET Modeler kernel used by the paper
(and the ``simpy`` library, unavailable offline) with the minimum the
models need: an event heap with argument-carrying and cancellable
timers and one-shot events.  Every model is a chain of callbacks;
``Environment.process``/``timeout`` drive generators only for the
kernel probes of the benchmark's ``layer_probes`` workload
(``perf/workloads.py``), their one driver outside the tests.

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
from .events import Deferred, Event
from .monitor import Counter

__all__ = [
    "Counter",
    "Deferred",
    "EmptySchedule",
    "Environment",
    "Event",
    "Infinity",
    "SimulationError",
]
