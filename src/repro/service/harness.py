"""In-process service bring-up for tests, benchmarks, and the CLI.

:func:`start_service` builds a simulation, wires the tap and optional
churn injector, binds the service's socket, starts the driver thread
and the service's selector loop on a background thread, and hands
back a :class:`ServiceHandle` that knows how to mint clients and how
to tear everything down in the right order (server first, then
driver — the driver stops the injector via ``Environment.cancel``
before the kernel thread exits).

While a service runs, the interpreter's thread switch interval is
:data:`SWITCH_INTERVAL`: a request is handed client → loop → driver →
loop → client, and each hand-over to a thread that is waiting for the
GIL costs up to one interval while the driver steps the kernel.  The
interval only matters while a thread waits for the GIL, so an idle
daemon pays nothing for it, and the batch simulator never sets it.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..experiments.runner import SimulationSetup, build_simulation
from ..sim.core import Hold
from ..topology.registry import resolve_topology
from .client import ServiceClient
from .driver import SimulationDriver
from .server import FabricService
from .tap import EventTap

if TYPE_CHECKING:  # imported on the branches of start_service that use them
    from ..manager.failover import StandbyManager
    from ..workloads.faults import FaultInjector

#: Fault budget for "endless" churn: large enough that a serving
#: session never exhausts it, small enough to bound the fault log.
CHURN_FAULT_BUDGET = 1_000_000

#: ``sys.setswitchinterval`` while at least one service runs (the
#: interpreter's default is 5 ms); derivation in docs/SERVICE.md.
SWITCH_INTERVAL = 0.001

#: The switch interval while any service of this process runs.
_SWITCH = Hold(sys.getswitchinterval, sys.setswitchinterval,
               lambda _found: SWITCH_INTERVAL)


@dataclass
class ServiceHandle:
    """A running service: address, live objects, and teardown."""

    host: str
    port: int
    setup: SimulationSetup
    driver: SimulationDriver
    service: FabricService
    tap: EventTap
    injector: Optional[FaultInjector] = None
    standby: Optional[StandbyManager] = None
    _thread: Optional[threading.Thread] = None
    _stopped: bool = field(default=False, repr=False)

    def client(self, timeout: float = 30.0) -> ServiceClient:
        """Open a new blocking client connection to this service."""
        return ServiceClient(self.host, self.port, timeout=timeout)

    def stop(self, timeout: float = 10.0) -> dict:
        """Stop server then driver, give the switch interval back if
        this was the last service; returns the service summary."""
        if not self._stopped:
            self._stopped = True
            self.service.request_shutdown()
            self._thread.join(timeout)
            self.driver.stop(timeout=timeout)
            _SWITCH.exit()
        return self.service.summary()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service(
    topology: str = "mesh9",
    algorithm: str = "parallel",
    manager: str = "full",
    host: str = "127.0.0.1",
    port: int = 0,
    seed: int = 0,
    churn: bool = False,
    mean_interval: float = 2e-3,
    standby: bool = False,
    **fm_kwargs,
) -> ServiceHandle:
    """Build, wire, and start a fabric service; returns its handle.

    With ``churn=True`` a :class:`~repro.workloads.faults.FaultInjector`
    keeps disturbing the fabric (FM host protected, effectively
    unlimited fault budget) so clients query a moving target.  With
    ``standby=True`` a :class:`~repro.manager.failover.StandbyManager`
    heartbeats the primary from a second endpoint, ready for the
    ``kill_fm`` / ``promote_standby`` verbs.  The returned handle's ``port`` is the
    actual bound port (pass ``port=0`` for an ephemeral one).
    """
    spec = resolve_topology(topology)
    tap = EventTap()
    standby_mgr = None
    if standby:
        from ..experiments.failover import build_failover_pair
        setup, standby_mgr = build_failover_pair(
            spec, algorithm=algorithm, manager=manager,
            fm_options=fm_kwargs or None,
        )
    else:
        setup = build_simulation(
            spec, algorithm=algorithm, manager=manager, **fm_kwargs,
        )
    # attach_tracer is non-perturbing and retroactively opens the span
    # for the discovery that auto-started at power-up.
    setup.fm.attach_tracer(tap)
    injector = None
    if churn:
        protect = [setup.fm.endpoint.name]
        if standby_mgr is not None:
            protect.append(standby_mgr.fm.endpoint.name)
        from ..workloads.faults import FaultInjector
        injector = FaultInjector(
            setup.fabric, mean_interval=mean_interval, protect=protect,
            seed=seed, fm=setup.fm,
        )
        injector.run(faults=CHURN_FAULT_BUDGET)

    driver = SimulationDriver(setup, injector)
    driver.tap = tap
    driver.standby = standby_mgr
    if standby_mgr is not None:
        standby_mgr.start()

        # Fires for verb-driven *and* heartbeat-driven promotions:
        # swap the served FM and publish the outcome on the feed (the
        # service wires ``driver.feed`` before the driver starts).
        def _takeover_done(event) -> None:
            report = event.value
            setup.fm = standby_mgr.fm
            standby_mgr.fm.attach_tracer(tap)
            driver.feed({
                "event": "failover",
                "phase": "takeover_complete",
                "fm": standby_mgr.fm.endpoint.name,
                "mode": report.mode,
                "detection_latency": report.detection_latency,
                "recovery_time": report.recovery_time,
                "repairs": report.repairs,
                "devices_recovered": report.devices_recovered,
                "sim_time": setup.env.now,
            })

        standby_mgr.takeover_event.callbacks.append(_takeover_done)
    service = FabricService(driver, host=host, port=port)
    host, port = service.start()  # nothing runs yet if it cannot bind
    tap.sink = service.hub.publish
    handle = ServiceHandle(
        host=host, port=port, setup=setup, driver=driver,
        service=service, tap=tap, injector=injector,
        standby=standby_mgr, _thread=threading.Thread(
            target=service.serve_until_shutdown, name="service-loop",
            daemon=True),
    )
    _SWITCH.enter()
    driver.start()
    handle._thread.start()
    return handle
