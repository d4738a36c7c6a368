#!/usr/bin/env python3
"""Continuous operation: a fabric under sustained topology churn.

The paper measures one change per run; this example lets a seeded
fault injector hammer a 4x4 torus with fifteen random switch
removals/restorations and link flaps while the FM keeps assimilating.
A packet tracer (management packets only) shows the PI-5 traffic of
the final change, and the run ends by checking the FM database still
matches the surviving ground truth exactly.

Run:  python examples/continuous_operation.py
"""

from repro import PARALLEL, build_simulation, make_torus, run_until_ready
from repro import database_matches_fabric
from repro.fabric import PacketTracer
from repro.fabric.packet import PI_EVENT
from repro.workloads.faults import FaultInjector


def main() -> None:
    spec = make_torus(4, 4)
    setup = build_simulation(spec, algorithm=PARALLEL)
    initial = run_until_ready(setup)
    print(f"{spec.name} up: {initial.devices_found} devices in "
          f"{initial.discovery_time * 1e3:.2f} ms\n")

    protect = setup.fm.endpoint.ports[0].neighbor().device.name
    injector = FaultInjector(setup.fabric, mean_interval=30e-3,
                             protect={protect}, seed=1234)
    tracer = PacketTracer(pi_filter={PI_EVENT}, limit=2000)
    tracer.attach(setup.fabric)

    done = injector.run(faults=15)
    setup.env.run(until=done)
    # Let the last assimilation(s) drain.
    for _ in range(40):
        if not setup.fm.is_discovering:
            break
        setup.env.run(until=setup.env.now + 20e-3)
    setup.env.run(until=setup.env.now + 50e-3)

    print("Injected faults:")
    for event in injector.log:
        print(f"  {event.time * 1e3:8.2f} ms  {event.kind:15s} "
              f"{event.target}")

    history = setup.fm.history
    changes = [s for s in history if s.trigger == "change"]
    print(f"\nFM ran {len(history)} discoveries "
          f"({len(changes)} change assimilations):")
    mean = sum(s.discovery_time for s in changes) / len(changes)
    print(f"  mean assimilation time : {mean * 1e3:.3f} ms")
    print(f"  PI-5 events received   : "
          f"{setup.fm.counters['pi5_received']}")
    print(f"  ignored (mid-discovery): "
          f"{setup.fm.counters['events_during_discovery']}")

    print("\nLast PI-5 notifications on the wire:")
    deliveries = [e for e in tracer.hops if e.kind == "deliver"]
    for event in deliveries[-4:]:
        print(f"  {event.render()}")

    ok = database_matches_fabric(setup)
    print(f"\nFinal database vs ground truth: "
          f"{'MATCH' if ok else 'MISMATCH'}")
    assert ok


if __name__ == "__main__":
    main()
