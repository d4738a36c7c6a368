"""Tier-1 scale acceptance: a ~1k-device Dragonfly discovers fully.

Pins the mega-scale contract at a size tier-1 can afford: the
992-device ``dragonfly-k8m62`` builds, completes a full parallel
discovery, and does so within a pinned kernel-event budget — so event
blow-ups (accidental per-port work, retry storms, route churn) fail
the suite instead of only showing up in the scale bench.  Two more
budgets pin what one packet hop costs: in kernel events, and in Python
function calls (a count, so it reads the same on every host); and the
share of sends that take the port's direct path is measured per
benchmark workload, so the selection has a number on each side.

``python tests/experiments/test_scale.py`` prints the calls per
transmission function by function and the direct-send shares (CI does,
so the trajectory is readable from the logs).
"""

import os
import sys
from collections import Counter

import pytest

import repro
from repro.experiments.runner import build_simulation, run_until_ready
from repro.experiments.scenario import Scenario
from repro.fabric.port import Port
from repro.fabric.vc import VirtualChannel
from repro.topology import make_mesh, resolve_topology

#: Kernel events executed for the whole run (measured 348,846 with the
#: port's and the management entity's unobservable events elided —
#: 847,323 were scheduled before; headroom for small refactors, tight
#: enough to catch a per-device or per-port regression).
EVENT_BUDGET = 380_000

#: Kernel events executed per port transmission on a Fig. 6 mesh
#: discovery: measured 2.243 (the head's arrival at the next port, the
#: switch's routing latency, and the management entity's one timer per
#: packet, spread over the hops), plus 5%.  The always-schedule chain
#: ran 5.5, so one reintroduced per-hop event fails here.
EVENTS_PER_TRANSMISSION_CEILING = 2.36

#: Python function calls inside ``repro`` per port transmission on the
#: same discovery — what a hop costs the host, in a unit no host
#: changes: measured 18.70 (443,882 calls for 23,738 transmissions with
#: every memo cold; 31.39 before the uncontended packet got its direct
#: path and the per-hop helpers were folded into their callers; 54.60
#: before the argument-carrying heap entries, integer port counters and
#: the hook-free header), plus 5%.  One more call per hop — a lambda
#: around the receive, a ``Counter.incr`` — costs 1-2 here.
PYTHON_CALLS_PER_TRANSMISSION_CEILING = 19.6

#: Share of ``Port.send`` calls transmitted directly (not pushed onto a
#: VC queue), as ``(at least, at most)`` per benchmark workload:
#: measured 99.4 / 95.4 / 95.3% on the three ``fig6_change`` algorithms,
#: 91.0% on ``discover_1k`` and 37.4% on ``load_mesh16`` — the workload
#: on the other side of the selection, where most sends really queue.
DIRECT_SHARE = {
    "fig6_change": (0.95, 1.0),
    "discover_1k": (0.90, 1.0),
    "load_mesh16": (0.35, 0.45),
}


def mesh_discovery_calls():
    """``(calls by (file, function), transmissions)`` of the 8x8-mesh
    parallel discovery, counting calls inside ``repro`` only."""
    setup = build_simulation(make_mesh(8, 8), algorithm="parallel")
    package = os.path.dirname(repro.__file__) + os.sep
    calls = Counter()

    def count_repro_calls(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package):
                calls[code.co_filename[len(package):], code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(count_repro_calls)
    try:
        run_until_ready(setup)
    finally:
        sys.setprofile(previous)
    transmissions = sum(
        port.tx_packets
        for device in setup.fabric.devices.values()
        for port in device.ports
    )
    return calls, transmissions


def _discover_1k():
    run_until_ready(build_simulation(resolve_topology("fattree2-1024"),
                                     algorithm="parallel"))


#: The simulation workloads of ``perf/workloads.py`` at seed 0.
WORKLOADS = {
    "fig6_change": lambda: [
        Scenario(kind="change", topology="8x8 mesh", algorithm=algorithm,
                 seed=0).run()
        for algorithm in ("serial_packet", "serial_device", "parallel")],
    "discover_1k": _discover_1k,
    "load_mesh16": lambda: Scenario(
        kind="load", topology="4x4 mesh", traffic={"load": 0.6},
        seed=0).run(),
}


def direct_send_share(workload: str) -> tuple:
    """``(sends, queued)`` of one workload: every ``Port.send`` call,
    and those whose packet went through ``VirtualChannel.push``.
    Counted from the test side — the program has no counter for it."""
    counts = Counter()
    send, push = Port.send, VirtualChannel.push

    def counted_send(port, packet):
        counts["sends"] += 1
        send(port, packet)

    def counted_push(vc, packet):
        counts["queued"] += 1
        push(vc, packet)

    Port.send, VirtualChannel.push = counted_send, counted_push
    try:
        WORKLOADS[workload]()
    finally:
        Port.send, VirtualChannel.push = send, push
    return counts["sends"], counts["queued"]


class TestThousandDeviceDragonfly:
    def test_discovery_completes_within_event_budget(self):
        spec = resolve_topology("dragonfly-k8m62")
        setup = build_simulation(spec, algorithm="parallel")
        devices = len(setup.fabric.devices)
        assert devices == 992
        stats = run_until_ready(setup)
        assert stats.devices_found == devices
        events = setup.env.vitals()["events_executed"]
        assert events <= EVENT_BUDGET, (
            f"discovery of {devices} devices executed {events:,} events "
            f"(budget {EVENT_BUDGET:,})"
        )


class TestEventsPerHop:
    def test_mesh_discovery_stays_under_the_per_transmission_ceiling(self):
        setup = build_simulation(make_mesh(8, 8), algorithm="parallel")
        run_until_ready(setup)
        transmissions = sum(
            port.stats["tx_packets"]
            for device in setup.fabric.devices.values()
            for port in device.ports
        )
        assert transmissions == 23_738
        per_hop = setup.env.vitals()["events_executed"] / transmissions
        assert per_hop <= EVENTS_PER_TRANSMISSION_CEILING, (
            f"{per_hop:.3f} kernel events per port transmission "
            f"(ceiling {EVENTS_PER_TRANSMISSION_CEILING})"
        )

    def test_mesh_discovery_stays_under_the_python_call_ceiling(self):
        calls, transmissions = mesh_discovery_calls()
        assert transmissions == 23_738
        per_hop = sum(calls.values()) / transmissions
        assert per_hop <= PYTHON_CALLS_PER_TRANSMISSION_CEILING, (
            f"{per_hop:.2f} Python calls inside repro per port "
            f"transmission (ceiling {PYTHON_CALLS_PER_TRANSMISSION_CEILING})"
        )


class TestDirectSendShare:
    @pytest.mark.parametrize("workload", sorted(DIRECT_SHARE))
    def test_share_of_sends_that_never_queue(self, workload):
        sends, queued = direct_send_share(workload)
        low, high = DIRECT_SHARE[workload]
        share = (sends - queued) / sends
        assert low <= share <= high, (
            f"{workload}: {sends - queued:,} of {sends:,} sends direct "
            f"({share:.1%}), expected {low:.0%} to {high:.0%}")


if __name__ == "__main__":
    table, sent = mesh_discovery_calls()
    print(f"Python calls inside repro per port transmission, 8x8-mesh "
          f"parallel discovery ({sent:,} transmissions)")
    for (filename, function), count in table.most_common():
        if count * 100 >= sent:  # 0.01 per transmission and up
            print(f"{count / sent:7.2f}  {filename}:{function}")
    print(f"{sum(table.values()) / sent:7.2f}  total "
          f"(ceiling {PYTHON_CALLS_PER_TRANSMISSION_CEILING})")
    print("Sends transmitted directly, per benchmark workload (seed 0)")
    for name in DIRECT_SHARE:
        sends, queued = direct_send_share(name)
        print(f"{name:12s} {sends - queued:8,d} of {sends:8,d} "
              f"({(sends - queued) / sends:.1%})")
