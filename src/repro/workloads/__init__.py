"""Synthetic workloads: background traffic and fault injection.

Every background activity that runs against a live fabric — the two
here and the standby monitor of :mod:`repro.manager.failover` — has
the same four-method lifecycle, a convention rather than a type:

* ``start()`` — begin the activity (starting a running workload may
  raise);
* ``stop()`` — cease the activity; safe to call more than once and
  safe to call on a never-started workload;
* ``stats()`` — a JSON-ready dict of counters and derived rates,
  readable at any time (including after ``stop``);
* ``describe()`` — a JSON-ready dict of static configuration, enough
  to tell one workload from another in logs and service responses
  (its ``"workload"`` key names the kind).
"""

from .faults import FaultEvent, FaultInjector
from .traffic import ARRIVALS, PATTERNS, TrafficGenerator, TrafficSpec

__all__ = [
    "ARRIVALS",
    "FaultEvent",
    "FaultInjector",
    "PATTERNS",
    "TrafficGenerator",
    "TrafficSpec",
]
