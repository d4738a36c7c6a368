"""Tier-1 scale acceptance: a ~1k-device Dragonfly discovers fully.

Pins the mega-scale contract at a size tier-1 can afford: the
992-device ``dragonfly-k8m62`` builds, completes a full parallel
discovery, and does so within a pinned kernel-event budget — so event
blow-ups (accidental per-port work, retry storms, route churn) fail
the suite instead of only showing up in the scale bench.  Two more
budgets pin what one packet hop costs: in kernel events, and in Python
function calls (a count, so it reads the same on every host).
"""

import os
import sys

import repro
from repro.experiments.runner import build_simulation, run_until_ready
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
#: changes: measured 31.48 (747,322 calls for 23,738 transmissions with
#: every memo cold; 30.97 once the route memos are warm; 54.60 before
#: the argument-carrying heap entries, integer port counters and the
#: hook-free header), plus 5%.  One more call per hop — a lambda around
#: the receive, a ``Counter.incr`` — costs 1-2 here.
PYTHON_CALLS_PER_TRANSMISSION_CEILING = 33.0


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
        setup = build_simulation(make_mesh(8, 8), algorithm="parallel")
        package = os.path.dirname(repro.__file__) + os.sep
        calls = 0

        def count_repro_calls(frame, event, arg):
            nonlocal calls
            if (event == "call"
                    and frame.f_code.co_filename.startswith(package)):
                calls += 1

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
        assert transmissions == 23_738
        per_hop = calls / transmissions
        assert per_hop <= PYTHON_CALLS_PER_TRANSMISSION_CEILING, (
            f"{per_hop:.2f} Python calls inside repro per port "
            f"transmission (ceiling {PYTHON_CALLS_PER_TRANSMISSION_CEILING})"
        )
