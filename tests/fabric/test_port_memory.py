"""What a port costs, as counts: no host speed or allocator in them.

A port's transmit state is one record per virtual channel it has sent
on, and a record's queues exist from their first append — which only a
packet that had to wait makes.  These pins count objects
(``gc.get_objects``) and read the records directly.  So do those of
what a discovery keeps once it is over: no process-wide route cache,
an 8-byte-a-packet Fig. 7(a) timeline.

``PYTHONPATH=src python -m tests.fabric.test_port_memory`` prints the
retained-object counts :class:`TestWhatOutlivesARun` pins.
"""

import gc
from array import array
from collections import deque

import pytest

from repro.experiments.runner import build_simulation, run_until_ready
from repro.fabric import CreditError, FabricParams, Packet
from repro.fabric.params import MANAGEMENT_TC
from repro.routing.turnpool import Hop, TurnPool, build_turn_pool
from repro.topology import resolve_topology

from .test_port_flow import data_packet, two_endpoints_one_switch

POOL = build_turn_pool([Hop(16, 0, 1)])


def live(*kinds):
    gc.collect()
    return [o for o in gc.get_objects() if type(o) in kinds]


@pytest.fixture(scope="module")
def discovered():
    """An idle parallel discovery of fattree2-256, and the deques and
    packets that building and running it left alive."""
    before = live(deque, Packet)  # held, so no id below is a recycled one
    known = set(map(id, before))
    setup = build_simulation(resolve_topology("fattree2-256"))
    run_until_ready(setup)
    created = [o for o in live(deque, Packet) if id(o) not in known]
    return (setup, [o for o in created if type(o) is deque],
            [o for o in created if type(o) is Packet])


def retained(topology="fattree2-256"):
    """Discover ``topology`` and count what the run keeps alive: turn
    pools while it lives, and turn pools and tuples of hops once it is
    deleted.  Objects alive before the build are not counted."""
    known = live(TurnPool, tuple)  # held, so no id below is recycled
    ids = set(map(id, known))

    def built(kinds):
        return [o for o in live(*kinds) if id(o) not in ids
                and (type(o) is TurnPool or (o and type(o[0]) is Hop))]

    setup = build_simulation(resolve_topology(topology))
    stats = run_until_ready(setup)
    counts = {
        "devices_known": len(setup.fm.database),
        "turn_pools_while_alive": len(built((TurnPool,))),
        "completions_received": stats.completions_received,
        "timeline_entries": len(stats.packet_timeline),
        "timeline_is_array": type(stats.packet_timeline) is array,
    }
    del setup, stats
    after = built((TurnPool, tuple))
    counts["turn_pools_after_del"] = sum(
        type(o) is TurnPool for o in after)
    counts["hop_tuples_after_del"] = sum(type(o) is tuple for o in after)
    return counts


def all_ports(setup):
    return [port for device in setup.fabric.devices.values()
            for port in device.ports]


class TestDiscoveryFootprint:
    def test_deques_only_where_something_had_to_wait(self, discovered):
        setup, created, _ = discovered
        ports = all_ports(setup)
        transmitting = sum(1 for p in ports if p.credits)
        queues = sum(1 for p in ports for vc in p.credits
                     for queue in (vc.ordered, vc.bypass)
                     if queue is not None)
        backed_up = sum(1 for e in setup.entities.values()
                        if e._backlog is not None)
        assert transmitting > 500
        # The parent of this pin: one per transmitting port and one
        # per entity (1,024 + 288); an uncontended packet needs none.
        assert len(created) <= queues + backed_up
        assert 0 < queues + backed_up < 0.15 * transmitting

    def test_a_discovery_uses_one_queue_of_the_management_vc(
            self, discovered):
        setup, _, _ = discovered
        management = setup.fabric.params.tc_vc_map[MANAGEMENT_TC]
        for port in all_ports(setup):
            for vc in port.credits:
                assert vc.index == management
                assert vc.ordered is None and not vc.bypass
                assert vc.available == vc.capacity

    def test_a_finished_discovery_keeps_no_packet_alive(self, discovered):
        """An entity takes a packet out of its slot before dispatching
        it.  While ``_current`` kept the last one served, every device
        pinned a packet, its header, payload and decoded message for
        the rest of the run: 288 here, one per device."""
        setup, _, packets = discovered
        assert len(packets) <= 4
        assert all(e._current is None for e in setup.entities.values())

    def test_the_heap_holds_only_entries_that_can_act(self):
        """The high-water mark was the URGENT attach kicks standing at
        t = 0 (one per attached port: 4,098 here), and behind them one
        retry timer per outstanding read.  A kick is reserved until a
        packet needs it and only the head of each timeout period's FIFO
        is a heap entry, so the heap stays at a few dozen entries
        whatever the fabric's size."""
        setup = build_simulation(resolve_topology("fattree2-1024"))
        run_until_ready(setup)
        attached = sum(1 for p in all_ports(setup) if p.link is not None)
        assert attached == 4_096
        assert setup.env.vitals()["heap_high_water"] <= 64


class TestWhatOutlivesARun:
    """A record keeps its own packed route; nothing keeps a route for
    the process.  While the lookup table on route packing lived, a
    ``fattree2-1024`` discovery left 4,094 turn pools and 8,189 tuples
    of hops behind it after ``del setup``."""

    @pytest.fixture(scope="class")
    def counts(self):
        return retained()

    def test_no_route_survives_the_run(self, counts):
        assert counts["turn_pools_after_del"] == 0
        assert counts["hop_tuples_after_del"] == 0

    def test_one_turn_pool_per_record_at_most(self, counts):
        assert 0 < counts["turn_pools_while_alive"] <= counts[
            "devices_known"]

    def test_the_timeline_is_a_flat_array_of_every_completion(
            self, counts):
        assert counts["timeline_is_array"]
        assert counts["timeline_entries"] == counts["completions_received"]


class TestRecordsFollowUse:
    def test_a_wired_port_that_never_sent_owns_nothing(self):
        env, fabric = two_endpoints_one_switch()
        env.run()  # the attach kicks
        for device in fabric.devices.values():
            for port in device.ports:
                rows = port.vc_stats()
                assert port.credits == ()
                assert port._tx_vcs is None and port._ledger is None
                assert [r["credits_available"] for r in rows] == [
                    r["credits_capacity"] for r in rows]

    def test_only_the_vc_that_carried_a_packet_gets_a_record(self):
        env, fabric = two_endpoints_one_switch()
        fabric.device("ep1").local_handler = lambda p, port: None
        fabric.device("ep0").inject(data_packet(POOL, tc=0))
        env.run()
        port = fabric.device("ep0").ports[0]
        assert [vc.index for vc in port.credits] == [0]
        assert port._tx_vcs[1] is None
        assert port.vc_stats()[1]["credits_available"] == 16
        assert port._tx_vcs[1] is None  # and reading made none

    def test_a_failed_link_reads_idle_with_full_credits(self):
        env, fabric = two_endpoints_one_switch()
        ep0 = fabric.device("ep0")
        for _ in range(6):
            ep0.inject(data_packet(POOL, payload_bytes=400))
        env.run(until=50e-9)  # first head on the wire, five queued
        port = ep0.ports[0]
        assert port.queued_packets() and port.credits[0].in_use
        fabric.fail_link("ep0", "sw")
        assert port.queued_packets() == 0
        assert port.credits == ()
        for row in port.vc_stats():
            assert row["tx_queued"] == 0
            assert row["credits_available"] == row["credits_capacity"]
        env.run()  # stale returns and arrivals are voided, not applied
        assert port.credits == ()
        assert port.stats["tx_dropped_link_down"] > 0


class TestStrictPriority:
    """By VC index — not by which record a port happened to create
    first, the one new way to get arbitration wrong."""

    def arrivals(self, fabric):
        got = []
        fabric.device("ep1").local_handler = (
            lambda packet, port: got.append(packet.header.tc))
        return got

    def test_higher_vc_leaves_first_though_created_second(self):
        env, fabric = two_endpoints_one_switch()
        got = self.arrivals(fabric)
        ep0 = fabric.device("ep0")
        ep0.inject(data_packet(POOL, tc=0))  # creates the VC0 record
        ep0.inject(data_packet(POOL, tc=0))
        ep0.inject(data_packet(POOL, tc=MANAGEMENT_TC))  # then VC1's
        port = ep0.ports[0]
        assert [vc.index for vc in port._pick_order] == [1, 0]
        env.run()
        assert got == [MANAGEMENT_TC, 0, 0]

    def test_lower_vc_proceeds_while_the_higher_has_no_credits(self):
        env, fabric = two_endpoints_one_switch()
        got = self.arrivals(fabric)
        ep0 = fabric.device("ep0")
        ep0.inject(data_packet(POOL, tc=0))
        ep0.inject(data_packet(POOL, tc=MANAGEMENT_TC))
        port = ep0.ports[0]
        high = port._tx_vcs[1]
        spent = high.available
        high.take(spent)  # the far buffer for VC1 is full
        env.run()
        assert got == [0]
        assert port.vc_stats()[1]["tx_queued"] == 1
        # The return a blocked sender waits for restarts it.
        port._credit_event(1, spent, port.link.epoch)
        env.run()
        assert got == [0, MANAGEMENT_TC]


class TestLinkDownReleaseOrder:
    def test_dropped_packets_free_their_buffers_lowest_vc_first(self):
        """Each release draws a sequence number for its credit return,
        so the order is part of every golden: VC0's queue, then VC1's —
        the reverse of the arbitration order the records are kept in."""
        env, fabric = two_endpoints_one_switch()
        ep0, sw = fabric.device("ep0"), fabric.device("sw")
        for tc in (0, MANAGEMENT_TC):
            ep0.inject(data_packet(POOL, tc=tc))
        env.run()
        egress = sw.ports[1]
        for vc in egress.credits:
            vc.take(vc.available)  # nothing leaves the switch any more
        for tc in (MANAGEMENT_TC, 0, MANAGEMENT_TC, 0):
            ep0.inject(data_packet(POOL, tc=tc))
        env.run()
        assert egress.queued_packets() == 4
        returns = ep0.ports[0]._ledger
        settled = len(returns)
        fabric.fail_link("sw", "ep1")
        assert [entry[2] for entry in returns[settled:]] == [0, 0, 1, 1]


class TestConservationChecksStay:
    def test_over_release_through_the_port_raises(self):
        env, fabric = two_endpoints_one_switch(
            FabricParams(rx_buffer_credits=8))
        fabric.device("ep1").local_handler = lambda p, port: None
        fabric.device("ep0").inject(data_packet(POOL))
        env.run()
        port = fabric.device("ep0").ports[0]
        assert port.credits[0].available == 8
        with pytest.raises(CreditError, match="over-release"):
            port._credit_event(0, 1, port.link.epoch)

    def test_take_beyond_available_through_the_port_raises(self):
        env, fabric = two_endpoints_one_switch(
            FabricParams(rx_buffer_credits=8))
        fabric.device("ep0").inject(data_packet(POOL))
        vc = fabric.device("ep0").ports[0].credits[0]
        with pytest.raises(CreditError, match="8 credits available"):
            vc.take(9)
        assert vc.available == 8

    def test_the_inline_credit_arithmetic_keeps_both_checks(self):
        """``_settle`` and ``_tx_start`` add and subtract in place; a
        violation still goes to the method that raises."""
        env, fabric = two_endpoints_one_switch(
            FabricParams(rx_buffer_credits=8))
        fabric.device("ep1").local_handler = lambda p, port: None
        ep0 = fabric.device("ep0")
        ep0.inject(data_packet(POOL))
        env.run()
        port = ep0.ports[0]
        (vc,) = port.credits
        assert vc.available == 8 and not port._ledger
        # A return nobody owes, ledgered like a real one.
        port._ledger.append((env.now, env.reserve(), 0, 1, port.link.epoch))
        with pytest.raises(CreditError, match="over-release"):
            port._settle(env.now, inline=True)
        assert vc.available == 8
        port._ledger.clear()
        # A packet handed to the transmit body without its credits.
        packet = data_packet(POOL)
        packet.wire_size, packet.wire_units = packet.wire_footprint()
        vc.take(6)
        with pytest.raises(CreditError, match="2 credits available"):
            port._tx_start(True, packet, vc)
        assert vc.available == 2 and port.tx_packets == 1


if __name__ == "__main__":
    print("What a fattree2-256 parallel discovery keeps alive "
          "(gc.get_objects, objects built by the run)")
    for key, value in retained().items():
        print(f"  {key:<24} {value}")
