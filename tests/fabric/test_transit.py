"""Integration tests: packets crossing links and switches end to end."""

import pytest

from repro.fabric import (
    Fabric,
    FabricParams,
    MANAGEMENT_TC,
    Packet,
    make_management_header,
)
from repro.fabric.packet import PI_DEVICE_MANAGEMENT
from repro.routing.turnpool import Hop, build_turn_pool
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def build_line(env, nswitches=2):
    """ep0 -- sw0 -- sw1 -- ... -- ep1, all on switch ports 0/1/2."""
    fabric = Fabric(env)
    fabric.add_endpoint("ep0")
    fabric.add_endpoint("ep1")
    for i in range(nswitches):
        fabric.add_switch(f"sw{i}")
    fabric.connect("ep0", 0, "sw0", 0)
    for i in range(nswitches - 1):
        fabric.connect(f"sw{i}", 1, f"sw{i+1}", 0)
    fabric.connect(f"sw{nswitches-1}", 1, "ep1", 0)
    fabric.power_up()
    return fabric


def route_ep0_to_ep1(fabric, nswitches=2):
    hops = [Hop(16, 0, 1) for _ in range(nswitches)]
    return build_turn_pool(hops)


def catcher(log, env):
    def handler(packet, port):
        log.append((env.now, packet))

    return handler


class TestUnicastTransit:
    def test_packet_reaches_destination_endpoint(self, env):
        fabric = build_line(env)
        got = []
        fabric.device("ep1").local_handler = catcher(got, env)

        pool = route_ep0_to_ep1(fabric)
        header = make_management_header(
            pool.pool, pool.bits, pi=PI_DEVICE_MANAGEMENT, tc=MANAGEMENT_TC
        )
        fabric.device("ep0").inject(Packet(header=header, payload=b"\x01" * 8))
        env.run()

        assert len(got) == 1
        when, packet = got[0]
        assert packet.header.turn_pointer == 0
        assert packet.hops == 2
        assert when > 0

    def test_transit_time_is_plausible(self, env):
        """Latency ~ tx + per-hop (routing + head) latencies, well under 1 us."""
        fabric = build_line(env)
        got = []
        fabric.device("ep1").local_handler = catcher(got, env)
        pool = route_ep0_to_ep1(fabric)
        header = make_management_header(
            pool.pool, pool.bits, pi=PI_DEVICE_MANAGEMENT
        )
        fabric.device("ep0").inject(Packet(header=header, payload=b"\x00" * 8))
        env.run()
        when, _ = got[0]
        params = fabric.params
        size = 8 + 16 + 8 + 4
        lower = params.tx_time(size)  # pure serialization
        assert lower < when < 1e-6

    def test_completion_retraces_route_backwards(self, env):
        """A reply with D=1 and the same pool reaches the requester."""
        fabric = build_line(env)
        back_log = []

        def responder(packet, port):
            reply = Packet(
                header=packet.header.reversed(), payload=b"\xAA" * 4
            )
            fabric.device("ep1").inject(reply)

        fabric.device("ep1").local_handler = responder
        fabric.device("ep0").local_handler = catcher(back_log, env)

        pool = route_ep0_to_ep1(fabric)
        header = make_management_header(
            pool.pool, pool.bits, pi=PI_DEVICE_MANAGEMENT
        )
        fabric.device("ep0").inject(Packet(header=header))
        env.run()

        assert len(back_log) == 1
        _, reply = back_log[0]
        assert reply.header.direction == 1
        assert reply.payload == b"\xAA" * 4

    def test_packet_for_intermediate_switch_terminates_there(self, env):
        fabric = build_line(env)
        got = []
        fabric.device("sw1").local_handler = catcher(got, env)
        # Route into sw1 only (one hop through sw0).
        pool = build_turn_pool([Hop(16, 0, 1)])
        header = make_management_header(
            pool.pool, pool.bits, pi=PI_DEVICE_MANAGEMENT
        )
        fabric.device("ep0").inject(Packet(header=header))
        env.run()
        assert len(got) == 1
        assert fabric.device("sw1").stats["consumed"] == 1

    def test_longer_chain(self, env):
        fabric = build_line(env, nswitches=6)
        got = []
        fabric.device("ep1").local_handler = catcher(got, env)
        pool = route_ep0_to_ep1(fabric, nswitches=6)
        header = make_management_header(
            pool.pool, pool.bits, pi=PI_DEVICE_MANAGEMENT
        )
        fabric.device("ep0").inject(Packet(header=header))
        env.run()
        assert len(got) == 1
        assert got[0][1].hops == 6


class TestPriority:
    def test_management_packet_overtakes_queued_application_data(self, env):
        """With both VCs backlogged, the management VC drains first."""
        fabric = build_line(env, nswitches=1)
        arrivals = []
        tags = {}  # by packet id

        def handler(packet, port):
            arrivals.append(tags[packet.pkt_id])

        fabric.device("ep1").local_handler = handler
        pool = build_turn_pool([Hop(16, 0, 1)])

        ep0 = fabric.device("ep0")
        # Saturate with bulk app packets, then one management packet.
        from repro.fabric.header import RouteHeader

        for i in range(8):
            header = RouteHeader(
                pi=8, tc=0, turn_pointer=pool.bits, turn_pool=pool.pool
            )
            pkt = Packet(header=header, payload=b"\x00" * 512)
            tags[pkt.pkt_id] = f"app{i}"
            ep0.inject(pkt)
        mgmt_header = make_management_header(
            pool.pool, pool.bits, pi=PI_DEVICE_MANAGEMENT
        )
        mgmt = Packet(header=mgmt_header)
        tags[mgmt.pkt_id] = "mgmt"
        ep0.inject(mgmt)

        env.run()
        assert len(arrivals) == 9
        # The management packet cannot beat the app packet already on
        # the wire, but must precede the rest of the backlog.
        assert "mgmt" in arrivals[:2]


class TestFailures:
    def test_forward_onto_down_link_drops(self, env):
        fabric = build_line(env)
        got = []
        fabric.device("ep1").local_handler = catcher(got, env)
        fabric.fail_link("sw1", "ep1")
        pool = route_ep0_to_ep1(fabric)
        header = make_management_header(
            pool.pool, pool.bits, pi=PI_DEVICE_MANAGEMENT
        )
        fabric.device("ep0").inject(Packet(header=header))
        env.run()
        assert got == []
        assert fabric.device("sw1").stats["forward_drops"] == 1

    def test_remove_device_takes_neighbor_ports_down(self, env):
        fabric = build_line(env)
        sw0 = fabric.device("sw0")
        assert sw0.ports[1].is_up
        fabric.remove_device("sw1")
        assert not sw0.ports[1].is_up
        assert sw0.stats["port_down"] >= 1

    def test_restore_device_brings_ports_back(self, env):
        fabric = build_line(env)
        fabric.remove_device("sw1")
        fabric.restore_device("sw1")
        assert fabric.device("sw0").ports[1].is_up
        assert fabric.device("ep1").ports[0].is_up

    def test_reachability_after_removal(self, env):
        fabric = build_line(env)
        fabric.remove_device("sw1")
        reachable = fabric.reachable_devices("ep0")
        assert reachable == ["ep0", "sw0"]

    def test_remove_inactive_device_rejected(self, env):
        fabric = build_line(env)
        fabric.remove_device("sw1")
        with pytest.raises(Exception):
            fabric.remove_device("sw1")


class TestFabricContainer:
    def test_duplicate_names_rejected(self, env):
        fabric = Fabric(env)
        fabric.add_switch("sw")
        with pytest.raises(Exception):
            fabric.add_switch("sw")

    def test_self_connection_rejected(self, env):
        fabric = Fabric(env)
        fabric.add_switch("sw")
        with pytest.raises(Exception):
            fabric.connect("sw", 0, "sw", 1)

    def test_graph_reflects_topology(self, env):
        fabric = build_line(env)
        g = fabric.graph()
        assert set(g.nodes) == {"ep0", "ep1", "sw0", "sw1"}
        assert g.number_of_edges() == 3
        assert g.nodes["sw0"]["kind"] == "switch"
        edge = g.adj["ep0"]["sw0"]
        assert edge is g.adj["sw0"]["ep0"]
        assert edge["ports"]["ep0"] == 0
        assert edge["ports"]["sw0"] == 0

    def test_dsns_are_unique(self, env):
        fabric = build_line(env, nswitches=4)
        dsns = [d.dsn for d in fabric.devices.values()]
        assert len(set(dsns)) == len(dsns)

    def test_device_by_dsn(self, env):
        fabric = build_line(env)
        sw0 = fabric.device("sw0")
        assert fabric.device_by_dsn(sw0.dsn) is sw0


class TestStaggeredPowerUp:
    def test_all_devices_eventually_active(self, env):
        from repro.topology import make_mesh

        spec = make_mesh(3, 3)
        fabric = spec.build(env)
        fabric.power_up(stagger=1e-3, seed=4)
        env.run(until=2e-3)
        assert all(d.active for d in fabric.devices.values())
        assert all(link.up for link in fabric.links)

    def test_links_train_only_when_both_ends_alive(self, env):
        from repro.topology import make_mesh

        spec = make_mesh(2, 2)
        fabric = spec.build(env)
        fabric.power_up(stagger=1e-3, seed=7)
        # Mid-transient: any up link must have two active endpoints.
        env.run(until=0.4e-3)
        for link in fabric.links:
            if link.up:
                assert link.a_port.device.active
                assert link.b_port.device.active

    def test_first_device_powers_at_time_zero(self, env):
        from repro.topology import make_mesh

        spec = make_mesh(2, 2)
        fabric = spec.build(env)
        fabric.power_up(stagger=1e-3, seed=2, first="ep_0_0")
        assert fabric.device("ep_0_0").active
        assert env.now == 0.0

    def test_invalid_stagger_rejected(self, env):
        from repro.topology import make_mesh

        fabric = make_mesh(2, 2).build(env)
        with pytest.raises(Exception):
            fabric.power_up(stagger=0)
