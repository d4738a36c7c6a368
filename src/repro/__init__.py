"""repro — a reproduction of "Implementing the Advanced Switching
Fabric Discovery Process" (Robles-Gomez, Bermudez, Casado, Quiles).

The package contains a from-scratch discrete-event simulator of an
Advanced Switching Interconnect (ASI) fabric — links, virtual channels,
credit-based flow control, cut-through switches, turn-pool source
routing, device configuration spaces, and the PI-4/PI-5 management
protocols — plus the fabric-management layer the paper studies: three
discovery implementations (Serial Packet, Serial Device, Parallel),
PI-5-driven change assimilation, FM failover, and the
paper's future-work extension of partial assimilation.

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

from importlib import import_module

__version__ = "1.0.0"


def _surface(namespace: dict, table: dict):
    """A package ``__init__`` as a surface, not a loader.

    Returns ``(__getattr__, __dir__, __all__)`` for the package whose
    ``globals()`` are ``namespace``; ``table`` maps each public name to
    the submodule, relative to the package, that defines it.  The
    submodule is imported the first time one of its names is touched
    (PEP 562) and the value cached in the package namespace, so
    ``import repro.experiments.runner`` loads what a discovery executes
    and ``from repro import make_mesh`` still works.  Code inside
    ``src/`` imports from the concrete submodule, never through a
    table.  docs/SIMULATION.md, "Import surface", has the numbers.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f"{package}.{table[name]}"), name)
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__, sorted(table)


__getattr__, __dir__, __all__ = _surface(globals(), {
    "ALGORITHMS": "manager.timing",
    "DiscoveryStats": "manager.discovery.base",
    "Environment": "sim.core",
    "ExperimentResult": "experiments.runner",
    "Fabric": "fabric.fabric",
    "FabricManager": "manager.fm",
    "FabricParams": "fabric.params",
    "FaultInjector": "workloads.faults",
    "ManagementEntity": "protocols.entity",
    "PARALLEL": "manager.timing",
    "PacketTracer": "fabric.trace",
    "ProcessingTimeModel": "manager.timing",
    "RunFailure": "experiments.executor",
    "SERIAL_DEVICE": "manager.timing",
    "SERIAL_PACKET": "manager.timing",
    "Scenario": "experiments.scenario",
    "StandbyManager": "manager.failover",
    "SweepError": "experiments.executor",
    "SweepReport": "experiments.executor",
    "TABLE1_NAMES": "topology.table1",
    "TopologySpec": "topology.spec",
    "TrafficGenerator": "workloads.traffic",
    "TrafficSpec": "workloads.traffic",
    "build_simulation": "experiments.runner",
    "database_matches_fabric": "experiments.runner",
    "make_fattree": "topology.fattree",
    "make_irregular": "topology.irregular",
    "make_mesh": "topology.mesh",
    "make_torus": "topology.torus",
    "run_many": "experiments.executor",
    "run_sweep": "experiments.executor",
    "run_until_discovery_count": "experiments.runner",
    "run_until_ready": "experiments.runner",
    "table1_suite": "topology.table1",
    "table1_topology": "topology.table1",
})
