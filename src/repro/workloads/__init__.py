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

from .. import _surface

__getattr__, __dir__, __all__ = _surface(globals(), {
    "ARRIVALS": "traffic",
    "FaultEvent": "faults",
    "FaultInjector": "faults",
    "PATTERNS": "traffic",
    "TrafficGenerator": "traffic",
    "TrafficSpec": "traffic",
})
