"""Tests for the packet tracer."""

import pytest

from repro.experiments.runner import build_simulation, run_until_ready
from repro.fabric import Packet, make_management_header
from repro.fabric.packet import PI_DEVICE_MANAGEMENT, PI_EVENT
from repro.fabric.trace import PacketTracer
from repro.manager import PARALLEL
from repro.routing.turnpool import Hop, build_turn_pool
from repro.topology import make_mesh


@pytest.fixture
def setup():
    return build_simulation(make_mesh(2, 2), algorithm=PARALLEL,
                            auto_start=False)


def send_one(setup, hops, payload=b"x"):
    pool = build_turn_pool(hops)
    header = make_management_header(pool.pool, pool.bits,
                                    pi=PI_DEVICE_MANAGEMENT)
    packet = Packet(header=header, payload=payload)
    setup.fabric.device("ep_0_0").inject(packet)
    setup.env.run(until=setup.env.now + 1e-4)
    return packet


class TestTracer:
    def test_path_reconstruction(self, setup):
        tracer = PacketTracer().attach(setup.fabric)
        # ep_0_0 -> sw_0_0 (in p4, out p1 east) -> sw_0_1, terminate.
        packet = send_one(setup, [Hop(16, 4, 1)])
        path = tracer.path_of(packet.pkt_id)
        assert path == ["ep_0_0", "sw_0_0", "sw_0_1"]

    def test_event_kinds_in_lifecycle_order(self, setup):
        tracer = PacketTracer().attach(setup.fabric)
        packet = send_one(setup, [Hop(16, 4, 1)])
        kinds = [e.kind for e in tracer.events_for(packet.pkt_id)]
        assert kinds[0] == "inject"
        assert kinds[-1] == "deliver"
        assert "forward" in kinds
        assert kinds.count("rx") == 2  # switch + destination

    def test_pi_filter(self, setup):
        tracer = PacketTracer(pi_filter={PI_EVENT}).attach(setup.fabric)
        packet = send_one(setup, [Hop(16, 4, 1)])
        assert tracer.events_for(packet.pkt_id) == []
        assert tracer.dropped_by_filter > 0

    def test_device_filter(self, setup):
        tracer = PacketTracer(device_filter={"sw_0_0"}).attach(setup.fabric)
        packet = send_one(setup, [Hop(16, 4, 1)])
        devices = {e.device for e in tracer.events_for(packet.pkt_id)}
        assert devices == {"sw_0_0"}

    def test_ring_buffer_bounded(self, setup):
        full = PacketTracer().attach(setup.fabric)
        send_one(setup, [Hop(16, 4, 1)])
        per_packet = len(full)
        tracer = PacketTracer(limit=10).attach(setup.fabric)
        for _ in range(8):
            send_one(setup, [Hop(16, 4, 1)])
        assert len(tracer) == 10
        # One retention policy: the newest ten are kept, the ones that
        # fell off are counted, and ``seq`` keeps counting across them.
        assert tracer.overflowed == 8 * per_packet - 10
        seqs = [hop.seq for hop in tracer.hops]
        assert seqs == list(range(tracer.overflowed, 8 * per_packet))
        assert tracer.hops[-1].kind == "deliver"

    def test_filtered_hops_are_counted_not_kept(self, setup):
        everything = PacketTracer().attach(setup.fabric)
        send_one(setup, [Hop(16, 4, 1)])
        total = len(everything)
        tracer = PacketTracer(
            device_filter={"sw_0_0"}, limit=2).attach(setup.fabric)
        send_one(setup, [Hop(16, 4, 1)])
        at_switch = sum(hop.device == "sw_0_0" for hop in everything.hops)
        # A filtered hop takes no sequence number and no room.
        assert tracer.dropped_by_filter == total - at_switch
        assert len(tracer) + tracer.overflowed == at_switch
        assert tracer.devices() == ["sw_0_0"]

    def test_drop_recorded(self, setup):
        tracer = PacketTracer().attach(setup.fabric)
        setup.fabric.fail_link("sw_0_1", "ep_0_1")
        setup.env.run()
        # Route toward the dead endpoint: sw_0_0 east then down port 4.
        packet = send_one(setup, [Hop(16, 4, 1), Hop(16, 3, 4)])
        kinds = [e.kind for e in tracer.events_for(packet.pkt_id)]
        assert "drop" in kinds
        drop = [e for e in tracer.events_for(packet.pkt_id)
                if e.kind == "drop"][0]
        assert "down" in drop.detail

    def test_render_is_readable(self, setup):
        tracer = PacketTracer().attach(setup.fabric)
        packet = send_one(setup, [Hop(16, 4, 1)])
        text = tracer.render(last=5)
        assert f"pkt#{packet.pkt_id}" in text
        assert "deliver" in text
        assert len(text.splitlines()) == 5

    def test_render_of_an_empty_tail_is_empty(self, setup):
        tracer = PacketTracer().attach(setup.fabric)
        send_one(setup, [Hop(16, 4, 1)])
        assert tracer.render(last=0) == ""
        assert tracer.render(last=1) == tracer.hops[-1].render()
        assert tracer.render(last=10 ** 6) == tracer.render()

    def test_counts_and_detach(self, setup):
        tracer = PacketTracer().attach(setup.fabric)
        send_one(setup, [Hop(16, 4, 1)])
        counts = tracer.counts()
        assert counts["inject"] == 1
        assert counts["deliver"] == 1
        before = len(tracer)
        PacketTracer.detach(setup.fabric)
        send_one(setup, [Hop(16, 4, 1)])
        assert len(tracer) == before

    def test_whole_discovery_traced(self, setup):
        tracer = PacketTracer(pi_filter={PI_DEVICE_MANAGEMENT},
                              limit=50_000).attach(setup.fabric)
        setup.fm.start_discovery()
        run_until_ready(setup)
        counts = tracer.counts()
        # Every request got injected and delivered somewhere; loopback
        # reads never touch the wire so inject >= deliver is not
        # guaranteed — but the volumes must be consistent.
        assert counts["deliver"] >= counts["inject"] / 2
        assert counts["drop"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketTracer(limit=0)
