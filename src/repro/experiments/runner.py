"""Single-experiment runner: the paper's simulation protocol.

"Each simulation begins with a transient period in which fabric devices
are activated and the FM gathers the initial topology.  After that, we
have programmed the occurrence of a topological change, consisting in
the addition or removal of a randomly chosen fabric switch.  For the
detection of changes, we have implemented the event-reporting mechanism
(PI-5) proposed in the ASI specification." (paper, section 4.1)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..fabric.fabric import Fabric
from ..fabric.params import DEFAULT_PARAMS, FabricParams
from ..manager.discovery.base import DiscoveryStats
from ..manager.fm import FabricManager
from ..manager.timing import PARALLEL, ProcessingTimeModel
from ..protocols.entity import ManagementEntity
from ..sim.core import Environment
from ..topology.spec import TopologySpec

#: Safety horizon: no single discovery should take this long (seconds).
MAX_SIM_TIME = 120.0


@dataclass
class SimulationSetup:
    """A built, powered-up fabric with management entities and an FM."""

    env: Environment
    spec: TopologySpec
    fabric: Fabric
    entities: Dict[str, ManagementEntity]
    fm: FabricManager


def build_simulation(
    spec: TopologySpec,
    algorithm: str = PARALLEL,
    timing: Optional[ProcessingTimeModel] = None,
    params: FabricParams = DEFAULT_PARAMS,
    fm_host: Optional[str] = None,
    power_up: bool = True,
    manager: str = "full",
    tracer=None,
    **fm_kwargs,
) -> SimulationSetup:
    """Instantiate a topology with a management entity per device and a
    fabric manager on ``fm_host`` (default: the spec's designated host).

    ``manager`` is the FM's ``assimilation``: ``"full"`` (every change
    is a full rediscovery, the paper's assumption) or ``"partial"`` (the
    burst-based partial change assimilation extension).  ``tracer`` is
    an optional :class:`repro.obs.session.TraceSession`, installed
    before anything runs; tracing never perturbs the simulation.
    """
    env = Environment()
    fabric = spec.build(env, params)
    timing = timing or ProcessingTimeModel()
    entities = {
        name: ManagementEntity(
            device,
            processing_time=timing.device_time,
            processing_factor=timing.device_factor,
        )
        for name, device in fabric.devices.items()
    }
    host = fm_host or spec.fm_host or spec.endpoints[0]
    fm = FabricManager(
        fabric.device(host), entities[host],
        timing=timing, algorithm=algorithm, assimilation=manager,
        **fm_kwargs,
    )
    if power_up:
        fabric.power_up()
    setup = SimulationSetup(env=env, spec=spec, fabric=fabric,
                            entities=entities, fm=fm)
    if tracer is not None:
        tracer.install(setup)
    return setup


def run_until_ready(setup: SimulationSetup) -> DiscoveryStats:
    """Run until the FM's current discovery finished AND its event
    routes are programmed (the fabric is change-detection capable)."""
    setup.env.run(until=setup.fm.ready_event)
    return setup.fm.last_stats()


def run_until_discovery_count(setup: SimulationSetup, n: int,
                              horizon: float = MAX_SIM_TIME) -> DiscoveryStats:
    """Run until ``n`` discoveries have completed (bounded by horizon)."""
    env, fm = setup.env, setup.fm
    if len(fm.history) >= n:
        return fm.history[n - 1]
    marker = env.event()

    def check(stats):
        if len(fm.history) >= n and not marker.triggered:
            marker.succeed(stats)

    def expire(_handle):
        if not marker.triggered:
            marker.succeed()

    fm.on_discovery_complete.append(check)
    deadline = env.schedule_callback(horizon, expire)
    env.run(until=marker)
    fm.on_discovery_complete.remove(check)
    # On success the horizon timer is still scheduled; a later bare
    # env.run() would spin the clock all the way to it.
    env.cancel(deadline)
    if len(fm.history) < n:
        raise TimeoutError(
            f"discovery #{n} did not finish within {horizon} s of "
            f"simulated time"
        )
    return fm.history[n - 1]


def database_matches_fabric(setup: SimulationSetup) -> bool:
    """Whether the FM database's devices and links equal the reachable
    ground truth (the auditor's graph comparison, without its port and
    route replay)."""
    # Imported by the first check, not with this module: a discovery's
    # imports are pinned (tests/test_import_budget.py).
    from ..manager.consistency import ConsistencyReport, TopologyAuditor

    report = ConsistencyReport()
    TopologyAuditor(setup.fabric, setup.fm).audit_graph(report)
    return report.ok


@dataclass
class ExperimentResult:
    """Outcome of one change-assimilation experiment (one Fig. 6 dot)."""

    topology: str
    family: str
    algorithm: str
    seed: int
    change: str
    changed_device: str
    total_devices: int
    #: Devices active and reachable from the FM after the change — the
    #: horizontal axis of Fig. 6(a) / Fig. 9.
    active_devices: int
    initial: DiscoveryStats = None
    assimilation: DiscoveryStats = None
    database_correct: bool = False

    @property
    def discovery_time(self) -> float:
        """Rediscovery time after the change (the Fig. 6 metric)."""
        return self.assimilation.discovery_time

    def asdict(self) -> dict:
        return {
            "topology": self.topology,
            "family": self.family,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "change": self.change,
            "changed_device": self.changed_device,
            "total_devices": self.total_devices,
            "active_devices": self.active_devices,
            "discovery_time": self.discovery_time,
            "initial_discovery_time": self.initial.discovery_time,
            "packets": self.assimilation.total_packets,
            "bytes": self.assimilation.total_bytes,
            "database_correct": self.database_correct,
        }


def _removable_switches(setup: SimulationSetup) -> list:
    """Switches whose removal leaves the FM endpoint attached.

    Removing the switch that hosts the FM's own link would leave the FM
    alone in the fabric; the paper's runs keep the FM reachable, so the
    directly-attached switch is excluded from the random choice.
    """
    fm_port = setup.fm.endpoint.ports[0]
    neighbor = fm_port.neighbor()
    attached = neighbor.device.name if neighbor is not None else None
    return sorted(
        sw.name for sw in setup.fabric.switches() if sw.name != attached
    )



def prepare_change(scenario, tracer=None) -> Tuple[SimulationSetup, str, str]:
    """First half of the paper's change protocol: build the scenario's
    simulation and draw the switch to change from
    ``random.Random(seed)`` — the first and only draw of that stream,
    so every family running the protocol changes the same switch.
    Returns ``(setup, change, victim)``; the caller runs the transient
    period (``run_until_ready``), then :func:`apply_change`.
    """
    change = scenario.get("change", "remove_switch")
    spec = scenario.spec()
    rng = random.Random(scenario.seed)
    setup = scenario.build(spec, tracer)
    candidates = _removable_switches(setup)
    if not candidates:
        raise ValueError(f"{spec.name}: no switch eligible for the change")
    victim = rng.choice(candidates)
    if change == "add_switch":
        # Keep the victim out of the initial topology.
        setup.fabric.remove_device(victim)
    return setup, change, victim


def apply_change(setup: SimulationSetup, change: str,
                 victim: str) -> DiscoveryStats:
    """Second half: the programmed change on a settled fabric.  PI-5
    detection triggers the change assimilation; returns its stats once
    the event-route reprogramming has finished too."""
    if change == "remove_switch":
        setup.fabric.remove_device(victim)
    else:
        setup.fabric.restore_device(victim)
    assimilation = run_until_discovery_count(setup, 2)
    setup.env.run(until=setup.fm.ready_event)
    return assimilation
