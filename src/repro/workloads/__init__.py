"""Synthetic workloads: background traffic and fault injection.

Every background activity that runs against a live fabric — the two
here and the standby monitor of :mod:`repro.manager.failover` — ends
the same way: ``stop()`` ceases the activity *now*, is safe to call
more than once and safe to call on a never-started workload.  It is
the one method the service driver calls on every workload.  How each
begins differs (``TrafficGenerator.start()``, ``FaultInjector.run(n)``,
``StandbyManager.start()``), and only the traffic generator keeps
``stats()`` / ``describe()``, because the service and the load family
read them.
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
