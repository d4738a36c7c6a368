"""Tier-1 scale acceptance: a ~1k-device Dragonfly discovers fully.

Pins the mega-scale contract at a size tier-1 can afford: the
992-device ``dragonfly-k8m62`` builds, completes a full parallel
discovery, and does so within a pinned kernel-event budget — so event
blow-ups (accidental per-port work, retry storms, route churn) fail
the suite instead of only showing up in the scale bench.  Two more
budgets pin what one packet hop costs: in kernel events, and in Python
function calls (a count, so it reads the same on every host); and the
share of sends that take the port's direct path is measured per
benchmark workload, so the selection has a number on each side.  The
same count, taken over the files a packet passes through *off* the
wire and divided by the requests opened, is what a PI-4 transaction
costs the host — with its two exact companions: one decode per
delivered packet, four message objects per transaction.  The same count
over a whole loaded change run, divided by the application packets its
sources injected, is what the traffic plane costs per packet.

``python tests/experiments/test_scale.py`` prints the calls per
transmission, per transaction and per application packet function by
function and the direct-send shares (CI does, so the trajectory is
readable from the logs).
"""

import os
import sys
from collections import Counter
from functools import partial

import pytest

import repro
from repro.experiments.runner import build_simulation, run_until_ready
from repro.experiments.scenario import Scenario
from repro.fabric.port import Port
from repro.fabric.vc import VirtualChannel
from repro.protocols import pi4
from repro.topology import make_mesh, resolve_topology

#: Kernel events executed for the whole run (measured 324,432 with the
#: no-op retry timers and attach kicks off the heap — 348,845 while
#: they popped, 847,323 before the port's and the management entity's
#: unobservable events were elided; headroom for small refactors, and
#: below what a heap that pushed them all again would execute).
EVENT_BUDGET = 340_000

#: Kernel events executed per port transmission on a Fig. 6 mesh
#: discovery: measured 2.169 (the head's arrival at the next port, the
#: switch's routing latency, and the management entity's one timer per
#: packet, spread over the hops), plus 3%.  It was 2.243 while every
#: retry timer and attach kick popped, and the always-schedule chain
#: ran 5.5, so one reintroduced per-hop event — or the no-op timers —
#: fails here.
EVENTS_PER_TRANSMISSION_CEILING = 2.23

#: Python function calls inside ``repro`` per port transmission on the
#: same discovery — what a hop costs the host, in a unit no host
#: changes: measured 16.45 (390,536 calls for 23,738 transmissions with
#: every memo cold; 16.59 while the turn pool's width was summed by a
#: generator before the pack; 18.70 while a PI-4 transaction decoded
#: every completion twice and rendered every config dword by its own
#: call chain, which no hop saw; 31.39 before the uncontended packet got its
#: direct path and the per-hop helpers were folded into their callers;
#: 54.60 before the argument-carrying heap entries, integer port
#: counters and the hook-free header), plus 5%.  One more call per hop
#: — a lambda around the receive, a ``Counter.incr`` — costs 1-2 here.
PYTHON_CALLS_PER_TRANSMISSION_CEILING = 17.3

#: Where a management packet is between leaving its last port and
#: entering its first: codec, configuration space, entity, transaction
#: engine, FM and discovery callbacks, packet and header construction.
OFF_WIRE = tuple(name.replace("/", os.sep) for name in (
    "protocols/", "capability/", "manager/", "fabric/packet.py",
    "fabric/header.py"))

#: Python calls inside those files per request opened
#: (``TransactionEngine.open``), same discovery: measured 58.55 (84,314
#: calls for 1,440 transactions; 90.62 before each packet was decoded
#: once, a read rendered in one pass and each question of the entity
#: and the FM asked once), plus 5%.
PYTHON_CALLS_PER_TRANSACTION_CEILING = 61.5

#: Python calls inside ``repro`` per application packet injected on a
#: loaded 3x3-mesh change run (load 0.4, seed 0), the whole run counted
#: — discovery, fault and reassimilation included: measured 60.83
#: (934,537 calls for 15,363 packets; 60.92 before the one-pass turn
#: pool; 69.57 while each traffic source was a generator process
#: woken by a ``Timeout`` per packet and the generator's tallies went
#: through ``Counter.incr``), plus 5%.
PYTHON_CALLS_PER_APPLICATION_PACKET_CEILING = 63.9

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


def repro_calls(run) -> tuple:
    """``(calls by (file, function), result)`` of ``run()``, counting
    calls inside ``repro`` only."""
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
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, result


def mesh_discovery_calls():
    """``(calls by (file, function), transmissions)`` of the 8x8-mesh
    parallel discovery, counting calls inside ``repro`` only."""
    setup = build_simulation(make_mesh(8, 8), algorithm="parallel")
    calls, _ = repro_calls(partial(run_until_ready, setup))
    transmissions = sum(
        port.tx_packets
        for device in setup.fabric.devices.values()
        for port in device.ports
    )
    return calls, transmissions


def application_packet_calls():
    """``(calls by (file, function), application packets injected)``
    of a whole loaded 3x3-mesh change run, inside ``repro`` only."""
    calls, result = repro_calls(Scenario(
        kind="load", topology="3x3 mesh", traffic={"load": 0.4},
        seed=0).run)
    return calls, result.packets_injected


def off_wire_calls(calls) -> tuple:
    """``(off-wire calls by (file, function), transactions)`` of a
    table :func:`mesh_discovery_calls` returned."""
    opened = calls["protocols" + os.sep + "transaction.py", "open"]
    return Counter({key: count for key, count in calls.items()
                    if key[0].startswith(OFF_WIRE)}), opened


def _discover_1k():
    setup = build_simulation(resolve_topology("fattree2-1024"),
                             algorithm="parallel")
    run_until_ready(setup)
    return setup


#: The five concrete PI-4 message types.
MESSAGES = (pi4.ReadRequest, pi4.ReadCompletion, pi4.ReadError,
            pi4.WriteRequest, pi4.WriteCompletion)


def count_codec_work(monkeypatch) -> Counter:
    """Count, from the test side, every ``pi4.decode`` call and every
    message object constructed until the patch is undone."""
    counts = Counter()

    def counted(name, function):
        def counting(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counting

    monkeypatch.setattr(pi4, "decode", counted("decodes", pi4.decode))
    for cls in MESSAGES:  # the concrete types' constructors only
        monkeypatch.setattr(cls, "__init__",
                            counted("messages", cls.__init__))
    return counts


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


class TestTransactionCost:
    def test_mesh_discovery_stays_under_the_per_transaction_ceiling(self):
        calls, _ = mesh_discovery_calls()
        off_wire, transactions = off_wire_calls(calls)
        assert transactions == 1_440
        per_transaction = sum(off_wire.values()) / transactions
        assert per_transaction <= PYTHON_CALLS_PER_TRANSACTION_CEILING, (
            f"{per_transaction:.2f} Python calls off the wire per "
            f"transaction (ceiling {PYTHON_CALLS_PER_TRANSACTION_CEILING})")

    def test_one_decode_per_packet_four_messages_per_transaction(
            self, monkeypatch):
        """Exact, not ceilings, on ``discover_1k``'s topology: a
        delivered management packet is decoded where it reaches an
        entity and nowhere else, and a transaction builds the request,
        its decoded twin at the device, the completion, and its decoded
        twin at the FM."""
        counts = count_codec_work(monkeypatch)
        setup = _discover_1k()
        monkeypatch.undo()
        decodes, messages = counts["decodes"], counts["messages"]
        counters = setup.fm.counters
        transactions = counters["requests_sent"]
        assert transactions == 8_193 and counters["retries"] == 0
        delivered = sum(entity.stats["rx_mgmt_packets"]
                        for entity in setup.entities.values())
        assert delivered == 2 * transactions
        assert decodes == delivered
        assert messages == 4 * transactions


class TestApplicationPacketCost:
    def test_loaded_mesh_stays_under_the_per_packet_ceiling(self):
        calls, injected = application_packet_calls()
        assert injected == 15_363
        per_packet = sum(calls.values()) / injected
        assert per_packet <= PYTHON_CALLS_PER_APPLICATION_PACKET_CEILING, (
            f"{per_packet:.2f} Python calls inside repro per application "
            f"packet (ceiling {PYTHON_CALLS_PER_APPLICATION_PACKET_CEILING})")


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
    off_wire, opened = off_wire_calls(table)
    print(f"Python calls off the wire per PI-4 transaction, same "
          f"discovery ({opened:,} transactions)")
    for (filename, function), count in off_wire.most_common():
        if count * 100 >= opened:  # 0.01 per transaction and up
            print(f"{count / opened:7.2f}  {filename}:{function}")
    print(f"{sum(off_wire.values()) / opened:7.2f}  total "
          f"(ceiling {PYTHON_CALLS_PER_TRANSACTION_CEILING})")
    table, injected = application_packet_calls()
    print(f"Python calls inside repro per application packet, loaded "
          f"3x3-mesh change run ({injected:,} packets)")
    for (filename, function), count in table.most_common():
        if count * 100 >= injected:  # 0.01 per packet and up
            print(f"{count / injected:7.2f}  {filename}:{function}")
    print(f"{sum(table.values()) / injected:7.2f}  total "
          f"(ceiling {PYTHON_CALLS_PER_APPLICATION_PACKET_CEILING})")
    print("Sends transmitted directly, per benchmark workload (seed 0)")
    for name in DIRECT_SHARE:
        sends, queued = direct_send_share(name)
        print(f"{name:12s} {sends - queued:8,d} of {sends:8,d} "
              f"({(sends - queued) / sends:.1%})")
