"""Fabric-manager-as-a-service: a control-plane daemon over the sim.

The paper's discovery process runs here as one-shot batch experiments;
a real AS fabric manager is a long-lived *service* that answers
topology and path queries while the fabric churns underneath it.  This
package provides that serving layer without touching the simulation
core:

* :class:`~repro.service.driver.SimulationDriver` — advances the
  deterministic event kernel on a dedicated thread and executes
  queries/mutations *between* events, so the sim state is never read
  or written mid-step;
* :class:`~repro.service.tap.EventTap` — a passive tracer (the
  :class:`~repro.obs.span.SpanTracer` protocol) that forwards PI-5
  notifications and FM span summaries to the live event feed and
  keeps nothing;
* :mod:`~repro.service.api` — the JSON operation handlers (topology
  snapshots, path lookup, FM status, metrics scrape, mutation verbs);
* :class:`~repro.service.server.FabricService` — a front-end on a
  ``selectors`` loop of its own (one connection object per client)
  speaking line-delimited JSON to many concurrent clients;
* :class:`~repro.service.client.ServiceClient` — the small blocking
  client used by tests and the benchmark's ``serve_churn`` workload
  (``perf/workloads.py``);
* :func:`~repro.service.harness.start_service` — an in-process
  service for tests and benchmarks.

The wire schema is versioned (:data:`~repro.service.api.SCHEMA`); see
``docs/SERVICE.md`` for the API reference and determinism caveats.
"""

from .. import _surface

__getattr__, __dir__, __all__ = _surface(globals(), {
    "ApiError": "api",
    "DriverStopped": "driver",
    "EventTap": "tap",
    "FabricService": "server",
    "SCHEMA": "api",
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceHandle": "harness",
    "SimulationDriver": "driver",
    "start_service": "harness",
})
