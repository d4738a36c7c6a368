"""Soak comparison: full rediscovery vs partial assimilation under churn.

Sustained topology churn (20 seeded faults on a 6x6 mesh) drives both
managers through back-to-back assimilations.  Reported per manager:
the change count, total management packets spent on assimilation, the
mean time per assimilated change, and the final database correctness.
The partial manager's packet budget should be a small fraction of the
full-rediscovery baseline's at identical fault schedules.
"""

from _common import quick, save

from repro.experiments.report import render_table
from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_ready,
)
from repro.manager import PARALLEL, FabricManager
from repro.protocols.entity import ManagementEntity
from repro.sim import Environment
from repro.topology import table1_topology
from repro.workloads.faults import FaultInjector

FAULTS = 20
SEED = 97


class _Setup:
    pass


def _build_partial(spec):
    env = Environment()
    fabric = spec.build(env)
    entities = {
        name: ManagementEntity(device)
        for name, device in fabric.devices.items()
    }
    fm = FabricManager(
        fabric.device(spec.fm_host), entities[spec.fm_host],
        assimilation="partial",
    )
    fabric.power_up()
    setup = _Setup()
    setup.env, setup.fabric, setup.entities, setup.fm = (
        env, fabric, entities, fm,
    )
    return setup


def _churn(setup, faults):
    protect = setup.fm.endpoint.ports[0].neighbor().device.name
    injector = FaultInjector(setup.fabric, mean_interval=60e-3,
                             protect={protect}, seed=SEED)
    done = injector.run(faults=faults)
    setup.env.run(until=done)
    for _ in range(80):
        if not setup.fm.busy:
            break
        setup.env.run(until=setup.env.now + 20e-3)
    setup.env.run(until=setup.env.now + 80e-3)
    return injector


def _soak(kind, spec, faults):
    if kind == "full rediscovery":
        setup = build_simulation(spec, algorithm=PARALLEL)
    else:
        setup = _build_partial(spec)
    run_until_ready(setup)
    injector = _churn(setup, faults)

    changes = [s for s in setup.fm.history if s.trigger == "change"]
    packets = sum(s.total_packets for s in changes)
    mean_time = (
        sum(s.discovery_time for s in changes) / len(changes)
        if changes else 0.0
    )
    return {
        "manager": kind,
        "faults": len(injector.log),
        "assimilations": len(changes),
        "packets": packets,
        "mean_time": mean_time,
        "correct": database_matches_fabric(setup),
    }


def _run():
    spec = table1_topology("4x4 mesh" if quick() else "6x6 mesh")
    faults = 8 if quick() else FAULTS
    return [
        _soak("full rediscovery", spec, faults),
        _soak("partial assimilation", spec, faults),
    ], spec.name


def test_soak(benchmark):
    rows, topology = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = render_table(
        ["manager", "faults", "assimilations", "mgmt packets",
         "mean time (s)", "final db"],
        [[r["manager"], r["faults"], r["assimilations"], r["packets"],
          r["mean_time"], r["correct"]] for r in rows],
    )
    save("soak", f"Soak under churn ({topology}, seed {SEED})\n" + text)

    full, partial = rows
    assert full["correct"] and partial["correct"]
    assert full["faults"] == partial["faults"]  # identical schedules
    assert partial["assimilations"] >= 1
    # Partial spends a small fraction of the baseline's packets.
    assert partial["packets"] < full["packets"] / 3
