#!/usr/bin/env python3
"""Custom topologies, background traffic, and partial assimilation.

Shows the library as a downstream user would drive it:

* define an irregular topology by hand with :class:`TopologySpec`;
* run discovery while the fabric carries application traffic (the
  management traffic class preempts it, per the specification);
* use the partial-assimilation manager so a link failure costs a
  handful of packets instead of a full rediscovery.

Run:  python examples/custom_topology.py
"""

from repro import (
    Environment,
    FabricManager,
    ManagementEntity,
    TopologySpec,
    TrafficGenerator,
    run_until_discovery_count,
)


def build_spec() -> TopologySpec:
    """A small dual-star with a redundant cross link.

          ep_a   ep_b          ep_c   ep_d
            \\     |              |     /
             [ core0 ]========[ core1 ]     (two parallel links)
                  \\              /
                   ---[ edge ]---
                         |
                       ep_e
    """
    spec = TopologySpec(
        name="dual-star",
        switches=[("core0", 16), ("core1", 16), ("edge", 8)],
        endpoints=["ep_a", "ep_b", "ep_c", "ep_d", "ep_e"],
        links=[
            ("ep_a", 0, "core0", 0),
            ("ep_b", 0, "core0", 1),
            ("ep_c", 0, "core1", 0),
            ("ep_d", 0, "core1", 1),
            ("ep_e", 0, "edge", 0),
            ("core0", 8, "core1", 8),   # primary core link
            ("core0", 9, "core1", 9),   # redundant core link
            ("core0", 10, "edge", 1),
            ("core1", 10, "edge", 2),
        ],
        fm_host="ep_a",
    )
    spec.validate()
    return spec


def main() -> None:
    env = Environment()
    spec = build_spec()
    fabric = spec.build(env)
    entities = {n: ManagementEntity(d) for n, d in fabric.devices.items()}
    fm = FabricManager(
        fabric.device(spec.fm_host), entities[spec.fm_host],
        auto_start=False, assimilation="partial",
    )
    fabric.power_up()

    # Application traffic at 40% load on the low-priority VC.
    traffic = TrafficGenerator(fabric, load=0.4, seed=7)
    traffic.attach_sinks(entities)
    traffic.start()

    fm.start_discovery()
    env.run(until=fm.ready_event)
    initial = fm.last_stats()
    print(f"{spec.name}: discovered {initial.devices_found} devices in "
          f"{initial.discovery_time * 1e3:.3f} ms under "
          f"{traffic.load:.0%} application load")
    print(f"  app packets so far: {traffic.counters['packets_injected']} "
          f"injected / {traffic.counters['packets_delivered']} delivered")

    # Fail the primary core link; the redundant one keeps the fabric
    # connected, so partial assimilation just drops one edge.
    print("\nFailing the primary core0<->core1 link...")
    link = [l for l in fabric.links if "core0.p8" in l.name][0]
    link.take_down()
    partial = run_until_discovery_count(_Setup(env, fm), 2)
    print(f"  assimilated as {partial.algorithm!r}: "
          f"{partial.requests_sent} requests, "
          f"{partial.discovery_time * 1e3:.3f} ms "
          f"(vs {initial.requests_sent} for a full discovery)")
    print(f"  database still holds {len(fm.database)} devices "
          f"(nothing was unreachable)")

    traffic.stop()


class _Setup:
    """Tiny adapter matching run_until_discovery_count's interface."""

    def __init__(self, env, fm):
        self.env = env
        self.fm = fm


if __name__ == "__main__":
    main()
