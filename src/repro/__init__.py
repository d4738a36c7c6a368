"""repro — a reproduction of "Implementing the Advanced Switching
Fabric Discovery Process" (Robles-Gomez, Bermudez, Casado, Quiles).

The package contains a from-scratch discrete-event simulator of an
Advanced Switching Interconnect (ASI) fabric — links, virtual channels,
credit-based flow control, cut-through switches, turn-pool source
routing, device configuration spaces, and the PI-4/PI-5 management
protocols — plus the fabric-management layer the paper studies: three
discovery implementations (Serial Packet, Serial Device, Parallel),
PI-5-driven change assimilation, FM election and failover, path
distribution, and the paper's future-work extensions (partial and
collaborative discovery).

Quick start::

    from repro import (
        PARALLEL, build_simulation, make_mesh, run_until_ready,
    )

    setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL,
                             auto_start=False)
    setup.fm.start_discovery()
    stats = run_until_ready(setup)
    print(stats.discovery_time, "seconds,", stats.devices_found, "devices")
"""

from .experiments import (
    ExperimentResult,
    RunFailure,
    Scenario,
    SweepError,
    SweepReport,
    build_simulation,
    database_matches_fabric,
    run_many,
    run_sweep,
    run_until_discovery_count,
    run_until_ready,
)
from .fabric import Fabric, FabricParams, PacketTracer
from .manager import (
    ALGORITHMS,
    PARALLEL,
    SERIAL_DEVICE,
    SERIAL_PACKET,
    CollaborativeDiscovery,
    DiscoveryStats,
    Election,
    FabricManager,
    PartialAssimilationManager,
    PathDistributor,
    ProcessingTimeModel,
    StandbyManager,
)
from .protocols import ManagementEntity
from .sim import Environment
from .topology import (
    TABLE1_NAMES,
    TopologySpec,
    make_fattree,
    make_irregular,
    make_mesh,
    make_torus,
    table1_suite,
    table1_topology,
)
from .workloads.faults import FaultInjector
from .workloads.traffic import TrafficGenerator, TrafficSpec

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "CollaborativeDiscovery",
    "DiscoveryStats",
    "Election",
    "Environment",
    "ExperimentResult",
    "Fabric",
    "FabricManager",
    "FaultInjector",
    "FabricParams",
    "ManagementEntity",
    "PARALLEL",
    "PacketTracer",
    "PartialAssimilationManager",
    "PathDistributor",
    "ProcessingTimeModel",
    "RunFailure",
    "SERIAL_DEVICE",
    "SERIAL_PACKET",
    "Scenario",
    "StandbyManager",
    "SweepError",
    "SweepReport",
    "TABLE1_NAMES",
    "TopologySpec",
    "TrafficGenerator",
    "TrafficSpec",
    "build_simulation",
    "database_matches_fabric",
    "make_fattree",
    "make_irregular",
    "make_mesh",
    "make_torus",
    "run_many",
    "run_sweep",
    "run_until_discovery_count",
    "run_until_ready",
    "table1_suite",
    "table1_topology",
]
