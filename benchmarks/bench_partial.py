"""X2 (section 5, future work) — partial (affected-region) discovery.

"Another possibility is to explore only the portion of the network
affected by the change [2], instead of the entire fabric."

The bench hot-removes and hot-adds a switch on grid fabrics and
compares the paper's full-rediscovery assimilation (Parallel) against
the partial manager.  Partial cost should be near-constant in fabric
size for removals, so its advantage grows with the fabric.
"""

from _common import quick, save

from repro.experiments.report import render_table
from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_discovery_count,
    run_until_ready,
)
from repro.manager import PARALLEL, FabricManager
from repro.protocols.entity import ManagementEntity
from repro.sim import Environment
from repro.topology import table1_topology


def _full(spec, victim):
    setup = build_simulation(spec, algorithm=PARALLEL, auto_start=False)
    setup.fm.start_discovery()
    run_until_ready(setup)
    setup.fabric.remove_device(victim)
    stats = run_until_discovery_count(setup, 2)
    return stats


def _partial(spec, victim):
    env = Environment()
    fabric = spec.build(env)
    entities = {n: ManagementEntity(d) for n, d in fabric.devices.items()}
    fm = FabricManager(
        fabric.device(spec.fm_host), entities[spec.fm_host],
        auto_start=False, assimilation="partial",
    )
    fabric.power_up()

    class Setup:
        pass

    setup = Setup()
    setup.env, setup.fabric, setup.fm, setup.spec = env, fabric, fm, spec
    fm.start_discovery()
    run_until_ready(setup)
    fabric.remove_device(victim)
    stats = run_until_discovery_count(setup, 2)
    env.run(until=fm.ready_event)
    assert database_matches_fabric(setup)
    return stats


def _center_switch(spec):
    dim = int(spec.name.split("x")[0])
    return f"sw_{dim // 2}_{dim // 2}"


def _run():
    names = ("4x4 mesh", "6x6 mesh") if quick() else (
        "4x4 mesh", "6x6 mesh", "8x8 mesh", "10x10 torus",
    )
    rows = []
    for name in names:
        spec = table1_topology(name)
        victim = _center_switch(spec)
        full = _full(spec, victim)
        part = _partial(spec, victim)
        rows.append({
            "topology": name,
            "devices": spec.total_devices,
            "full_time": full.discovery_time,
            "partial_time": part.discovery_time,
            "full_packets": full.requests_sent,
            "partial_packets": part.requests_sent,
            "packet_saving": full.requests_sent / max(1, part.requests_sent),
        })
    return rows


def test_partial(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = render_table(
        ["Topology", "Devices", "full t (s)", "partial t (s)",
         "full pkts", "partial pkts", "pkt saving"],
        [[r["topology"], r["devices"], r["full_time"], r["partial_time"],
          r["full_packets"], r["partial_packets"],
          f"{r['packet_saving']:.0f}x"] for r in rows],
    )
    save("partial_x2", "X2. Partial (affected-region) assimilation\n" + text)

    for row in rows:
        assert row["partial_packets"] < row["full_packets"] / 10
        assert row["partial_time"] < row["full_time"]
    # The saving grows with fabric size (partial cost ~ constant).
    assert rows[-1]["packet_saving"] > rows[0]["packet_saving"]
