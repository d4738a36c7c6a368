"""Unit tests for fabric-manager internals: tags, timers, events."""

import pytest

from repro.capability import BASELINE_CAP_ID, EVENT_ROUTE_CAP_ID
from repro.experiments.runner import (
    build_simulation,
    run_until_discovery_count,
    run_until_ready,
)
from repro.manager import PARALLEL, SERIAL_PACKET
from repro.protocols import pi4, pi5
from repro.routing.turnpool import build_turn_pool
from repro.topology import make_mesh


@pytest.fixture
def setup():
    return build_simulation(make_mesh(2, 2), algorithm=PARALLEL,
                            auto_start=False)


class TestRequestLayer:
    def test_tags_are_unique_and_rewritten(self, setup):
        fm = setup.fm
        seen = []
        pool = build_turn_pool([])
        for _ in range(5):
            tag = fm.send_request(
                pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=999),
                pool, None, callback=lambda c, x: seen.append(c),
            )
            assert tag not in seen
        setup.env.run()
        assert len(seen) == 5
        tags = {c.tag for c in seen}
        assert len(tags) == 5
        assert 999 not in tags  # caller-supplied tag was replaced

    def test_per_request_timeout_override(self, setup):
        fm = setup.fm
        setup.fabric.fail_link("ep_0_0", "sw_0_0")
        setup.env.run()
        results = []
        pool = build_turn_pool([])
        fm.send_request(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=0),
            pool, 0, callback=lambda c, x: results.append((c, setup.env.now)),
            retries=0, timeout=0.2e-3,
        )
        setup.env.run()
        assert results == [(None, pytest.approx(0.2e-3, rel=0.01))]

    def test_retries_escalate_then_give_up(self, setup):
        fm = setup.fm
        setup.fabric.fail_link("ep_0_0", "sw_0_0")
        setup.env.run()
        results = []
        pool = build_turn_pool([])
        fm.send_request(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=0),
            pool, 0, callback=lambda c, x: results.append(setup.env.now),
            retries=2, timeout=0.1e-3,
        )
        setup.env.run()
        # Give-up after (retries + 1) timeout periods.
        assert results == [pytest.approx(0.3e-3, rel=0.01)]
        assert fm.counters["retries"] == 2
        assert fm.counters["timeouts"] == 1

    def test_stale_completion_counted_not_crashing(self, setup):
        """A completion whose tag is unknown is counted and dropped."""
        fm = setup.fm
        from repro.fabric.packet import Packet, make_management_header

        header = make_management_header(0, 0, pi=4, direction=1)
        orphan = Packet(
            header=header,
            payload=pi4.ReadCompletion(cap_id=0, offset=0, tag=424242,
                                       data=(1,)).pack(),
        )
        fm.handle_management_packet(orphan, None)
        assert fm.counters["stale_completions"] == 1

    def test_unexpected_request_to_manager_counted(self, setup):
        fm = setup.fm
        from repro.fabric.packet import Packet, make_management_header

        header = make_management_header(0, 0, pi=4)
        packet = Packet(
            header=header,
            payload=pi4.ReadRequest(cap_id=0, offset=0, tag=1).pack(),
        )
        fm.handle_management_packet(packet, None)
        assert fm.counters["unexpected_requests"] == 1


class TestGarbageAtTheFmEndpoint:
    """An undecodable PI-4 payload delivered to the FM's own endpoint
    raises nothing, is attempted and counted exactly once (by the
    entity, at its serve turn), names no request and so clears no
    timer: the request it might have been meant for is retried."""

    @pytest.mark.parametrize("damage", ["noise", "truncated completion"])
    def test_counted_once_and_the_timer_stays_armed(self, setup,
                                                    monkeypatch, damage):
        from repro.fabric.packet import Packet, make_management_header
        from repro.routing.turnpool import Hop

        fm, env = setup.fm, setup.env
        env.run()  # attach kicks, power-up events
        ep = fm.endpoint
        entity = setup.entities[ep.name]
        near = ep.ports[0].neighbor()
        sw = near.device
        unwired = next(p.index for p in sw.ports if p.link is None)
        results = []
        # A read sent down a port nothing is attached to: no answer.
        tag = fm.send_request(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=0),
            build_turn_pool([Hop(sw.nports, near.index, unwired)]), 0,
            callback=lambda c, x: results.append(c),
            retries=1, timeout=0.1e-3,
        )
        garbage = b"\x02\x01garbage" if damage == "noise" else (
            pi4.ReadCompletion(cap_id=BASELINE_CAP_ID, offset=0, tag=tag,
                               data=(1, 2)).pack()[:-1])
        attempts = []
        decode = pi4.decode

        def counted(payload):
            attempts.append(payload)
            return decode(payload)
        monkeypatch.setattr(pi4, "decode", counted)
        sw.inject(Packet(header=make_management_header(0, 0, pi=4),
                         payload=garbage), port_index=near.index)
        env.run(until=env.now + 0.05e-3)  # delivered, served, dropped
        assert attempts.count(garbage) == 1
        assert entity.stats["pi4_decode_errors"] == 1
        assert fm.counters["pi4_decode_errors"] == 0  # never handed over
        assert fm.engine.pending[tag].arrived is False
        assert fm.counters["retries"] == 0 and results == []
        env.run()
        assert fm.counters["retries"] == 1  # the timer fired
        assert fm.counters["timeouts"] == 1 and results == [None]
        assert entity.stats["pi4_decode_errors"] == 1
        assert attempts.count(garbage) == 1

    def test_a_decodable_completion_does_clear_it(self, setup):
        """The other side of the same path: the tag of the message the
        entity decoded on arrival marks the request as answered."""
        fm = setup.fm
        results = []
        tag = fm.send_request(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=0),
            build_turn_pool([]), 0, callback=lambda c, x: results.append(c),
        )
        arrived = []
        note = fm.note_packet_arrival

        def spy(packet):
            note(packet)
            arrived.append((packet.message.tag,
                            fm.engine.pending[tag].arrived))
        fm.note_packet_arrival = spy
        setup.env.run()
        assert arrived == [(tag, True)]
        assert [c.tag for c in results] == [tag]


class TestRequestBarrier:
    """``send_all``: N requests, ``each`` per completion, ``then`` once."""

    @staticmethod
    def request(ctx, out_port=None):
        """A loopback read (answered), or one out of ``out_port``."""
        message = pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=0)
        return message, build_turn_pool([]), out_port, ctx

    def test_no_requests_runs_then_at_once(self, setup):
        calls = []
        setup.fm.send_all([], lambda c, ctx: calls.append(ctx),
                          lambda: calls.append("then"))
        assert calls == ["then"]
        setup.env.run()
        assert calls == ["then"]

    def test_each_per_completion_none_for_the_lost_then_once_and_last(
            self, setup):
        fm = setup.fm
        fm.engine.max_retries = 0
        setup.fabric.fail_link("ep_0_0", "sw_0_0")
        setup.env.run()
        calls = []
        # Odd requests leave through the dead link and time out.  A
        # generator: the barrier counts before it sends.
        fm.send_all(
            (self.request(ctx, 0 if ctx % 2 else None) for ctx in range(4)),
            lambda c, ctx: calls.append((ctx, c is not None)),
            lambda: calls.append("then"),
        )
        assert calls == []
        setup.env.run()
        assert calls == [(0, True), (2, True), (1, False), (3, False),
                         "then"]
        assert fm.counters["timeouts"] == 2

    def test_a_second_barrier_opened_inside_then(self, setup):
        fm = setup.fm
        calls = []

        def each(_completion, ctx):
            calls.append(ctx)

        def first_done():
            calls.append("then-1")
            fm.send_all([self.request("b1"), self.request("b2")], each,
                        lambda: calls.append("then-2"))

        fm.send_all([self.request("a1"), self.request("a2")], each,
                    first_done)
        setup.env.run()
        assert calls == ["a1", "a2", "then-1", "b1", "b2", "then-2"]


class TestEventHandling:
    def test_stale_event_is_ignored(self, setup):
        setup.fm.start_discovery()
        run_until_ready(setup)
        # Report a state the database already holds.
        sw = setup.fabric.device("sw_0_0")
        setup.fm._handle_event(
            pi5.PortEvent(reporter_dsn=sw.dsn, port=4, up=True, seq=7)
        )
        assert setup.fm.counters["events_stale"] == 1
        assert not setup.fm.is_discovering

    def test_event_during_discovery_is_deferred_to_running_run(self, setup):
        setup.fm.start_discovery()
        sw = setup.fabric.device("sw_0_0")
        setup.fm._handle_event(
            pi5.PortEvent(reporter_dsn=sw.dsn, port=9, up=False, seq=1)
        )
        assert setup.fm.counters["events_during_discovery"] == 1

    def test_events_before_enable_ignored(self, setup):
        # Power-up already delivered the FM's own port-up event.
        before = setup.fm.counters["events_before_enable"]
        sw = setup.fabric.device("sw_0_0")
        setup.fm._handle_event(
            pi5.PortEvent(reporter_dsn=sw.dsn, port=0, up=False, seq=1)
        )
        assert setup.fm.counters["events_before_enable"] == before + 1
        assert not setup.fm.is_discovering


class TestEventRouteProgramming:
    def test_every_device_gets_a_working_event_route(self, setup):
        setup.fm.start_discovery()
        run_until_ready(setup)
        fm_dsn = setup.fm.endpoint.dsn
        for name, device in setup.fabric.devices.items():
            if device.dsn == fm_dsn:
                continue
            cap = device.config_space.capability(EVENT_ROUTE_CAP_ID)
            assert cap.get_route() is not None, name

    def test_event_routes_deliver_from_every_device(self, setup):
        """Force a PI-5 from each device and verify FM reception."""
        setup.fm.start_discovery()
        run_until_ready(setup)
        fm = setup.fm
        received_before = fm.counters["pi5_received"]
        reporters = 0
        for name, entity in setup.entities.items():
            device = entity.device
            if device is fm.endpoint:
                continue
            entity.report_port_event(device.ports[0], up=True)
            reporters += 1
        setup.env.run(until=setup.env.now + 1e-3)
        assert fm.counters["pi5_received"] - received_before == reporters


class TestHistoryAndStats:
    def test_history_accumulates_in_order(self, setup):
        setup.fm.start_discovery()
        run_until_ready(setup)
        setup.fabric.remove_device("sw_1_1")
        run_until_discovery_count(setup, 2)
        history = setup.fm.history
        assert len(history) == 2
        assert history[0].trigger == "initial"
        assert history[1].trigger == "change"
        assert history[1].started_at > history[0].finished_at

    def test_last_stats_requires_a_run(self, setup):
        with pytest.raises(RuntimeError):
            setup.fm.last_stats()

    def test_mean_processing_time_requires_packets(self, setup):
        with pytest.raises(RuntimeError):
            setup.fm.mean_processing_time()

    def test_non_fm_capable_endpoint_rejected(self):
        from repro.manager import FabricManager
        from repro.protocols import ManagementEntity
        from repro.sim import Environment
        from repro.fabric import Fabric

        env = Environment()
        fabric = Fabric(env)
        ep = fabric.add_endpoint("ep", fm_capable=False)
        entity = ManagementEntity(ep)
        with pytest.raises(ValueError, match="not FM capable"):
            FabricManager(ep, entity)
