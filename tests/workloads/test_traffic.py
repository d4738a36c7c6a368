"""Tests for the configurable application-traffic workload."""

import random
from dataclasses import replace

import pytest

from repro.experiments.runner import build_simulation, run_until_ready
from repro.fabric import PI_APPLICATION, Packet, RouteHeader
from repro.fabric.params import DEFAULT_PARAMS
from repro.manager import PARALLEL
from repro.routing.paths import fabric_endpoint_routes
from repro.topology import make_mesh
from repro.workloads import (
    ARRIVALS,
    PATTERNS,
    TrafficGenerator,
    TrafficSpec,
)


class TestTrafficSpec:
    def test_defaults(self):
        spec = TrafficSpec()
        assert spec.load == 0.5
        assert spec.arrival == "poisson"
        assert spec.pattern == "uniform"
        assert spec.enabled

    def test_idle_spec_is_valid(self):
        spec = TrafficSpec(load=0.0)
        assert not spec.enabled

    @pytest.mark.parametrize("kwargs", [
        {"load": -0.1},
        {"load": 1.5},
        {"packet_bytes": 0},
        {"tc": 8},
        {"tc": -1},
        {"arrival": "diurnal"},
        {"pattern": "tornado"},
        {"burst_length": 0.5},
        {"hotspot_fraction": 0.0},
        {"hotspot_fraction": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrafficSpec(**kwargs)

    def test_round_trip(self):
        spec = TrafficSpec(load=0.7, packet_bytes=128, tc=3,
                           arrival="bursty", pattern="hotspot",
                           burst_length=4.0, hotspot_fraction=0.9)
        doc = spec.to_dict()
        assert doc["schema"] == "repro/traffic/v1"
        assert TrafficSpec.from_dict(doc) == spec

    def test_from_dict_rejects_unknown_fields(self):
        doc = TrafficSpec().to_dict()
        doc["jitter"] = 1
        with pytest.raises(ValueError, match="unknown TrafficSpec"):
            TrafficSpec.from_dict(doc)

    def test_from_dict_rejects_wrong_schema(self):
        doc = TrafficSpec().to_dict()
        doc["schema"] = "repro/traffic/v99"
        with pytest.raises(ValueError, match="schema"):
            TrafficSpec.from_dict(doc)


class TestTrafficGenerator:
    def test_override_kwargs(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.3, packet_bytes=128)
        assert gen.spec.load == 0.3
        assert gen.spec.packet_bytes == 128
        # Overrides are validated through the spec itself.
        with pytest.raises(ValueError):
            TrafficGenerator(setup.fabric, load=1.5)

    def test_traffic_flows_end_to_end(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.3, seed=1)
        gen.attach_sinks(setup.entities)
        gen.start()
        setup.env.run(until=1e-3)
        gen.stop()
        setup.env.run(until=setup.env.now + 1e-4)
        stats = gen.stats()
        assert stats["packets_injected"] > 50
        # Virtually everything injected is delivered (no losses in a
        # healthy fabric; at most the last few packets are in flight).
        assert stats["packets_delivered"] >= stats["packets_injected"] - 10
        assert stats["offered_load"] == 0.3
        assert stats["delivered_bytes_per_s"] > 0

    def test_load_scales_injection_rate(self):
        rates = {}
        for load in (0.2, 0.8):
            setup = build_simulation(make_mesh(2, 2), auto_start=False)
            gen = TrafficGenerator(setup.fabric, load=load, seed=2)
            gen.start()
            setup.env.run(until=1e-3)
            gen.stop()
            rates[load] = gen.counters["packets_injected"]
        assert rates[0.8] > 2.5 * rates[0.2]

    def test_double_start_rejected(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.2)
        gen.start()
        with pytest.raises(RuntimeError):
            gen.start()

    def test_restart_offers_the_load_once(self):
        """``stop()`` then ``start()`` replaces the sources instead of
        adding to them: the stopped chains never inject again, so the
        restarted generator offers the spec's load, not twice it (the
        bug this pins measured 959 packets against 619)."""
        def injected(restart_at):
            setup = build_simulation(make_mesh(3, 3), auto_start=False)
            gen = TrafficGenerator(setup.fabric, load=0.2, seed=1)
            gen.start()
            if restart_at is not None:
                setup.env.run(until=restart_at)
                gen.stop()
                gen.start()
                assert gen.running
            setup.env.run(until=0.4e-3)
            gen.stop()
            stopped = gen.counters["packets_injected"]
            setup.env.run()  # every chain ends: the heap drains
            assert setup.env.peek() == float("inf")
            assert gen.counters["packets_injected"] == stopped
            return stopped

        plain = injected(None)
        assert plain == 619
        assert abs(injected(0.2e-3) - plain) <= 0.1 * plain

    def test_idle_generator_is_a_true_noop(self):
        """load=0 schedules nothing and draws no random numbers, so the
        event stream is bit-identical to a run without a generator."""
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.0, seed=5)
        before = gen.rng.getstate()
        heap_before = setup.env.peek()
        gen.start()
        assert gen.rng.getstate() == before
        assert setup.env.peek() == heap_before
        assert not gen.running
        assert gen.stats().get("packets_injected", 0) == 0
        with pytest.raises(ValueError):
            gen.mean_interarrival

    def test_app_packets_do_not_cost_management_time(self):
        """The entity processes application packets at zero cost."""
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.5, seed=3)
        gen.attach_sinks(setup.entities)
        gen.start()
        setup.env.run(until=0.5e-3)
        delivered = sum(
            e.stats["app_packets"] for e in setup.entities.values()
        )
        assert delivered > 0

    def test_seed_reproducibility(self):
        def run(seed):
            setup = build_simulation(make_mesh(2, 2), auto_start=False)
            gen = TrafficGenerator(setup.fabric, load=0.4, seed=seed)
            gen.attach_sinks(setup.entities)
            gen.start()
            setup.env.run(until=1e-3)
            return dict(gen.counters.asdict())

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestArrivalsAndPatterns:
    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_every_arrival_injects(self, arrival):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.5, arrival=arrival,
                               seed=11)
        gen.start()
        setup.env.run(until=1e-3)
        assert gen.counters["packets_injected"] > 20

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_delivers(self, pattern):
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.3, pattern=pattern,
                               seed=12)
        gen.attach_sinks(setup.entities)
        gen.start()
        setup.env.run(until=1e-3)
        assert gen.counters["packets_delivered"] > 20

    def test_constant_arrival_is_perfectly_paced(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.5, arrival="constant",
                               seed=13)
        gen.start()
        horizon = 1e-3
        setup.env.run(until=horizon)
        sources = len([e for e in setup.fabric.endpoints() if e.active])
        expected = sources * int(horizon / gen.mean_interarrival)
        assert abs(gen.counters["packets_injected"] - expected) <= sources

    def test_permutation_fixes_one_partner_per_source(self):
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.3,
                               pattern="permutation", seed=14)
        gen.start()
        sources = sorted(gen._routes)
        partners = [gen._partners[s] for s in sources]
        # A cycle: every source has a distinct partner, never itself.
        assert len(set(partners)) == len(sources)
        assert all(p != s for s, p in zip(sources, partners))

    def test_restart_draws_partners_for_the_new_routes(self):
        """A restart after a partition keeps no partner of the old
        cycle: a source whose new successor is out of reach falls back
        to uniform draws instead of sending to a stale partner that its
        new routes no longer hold."""
        setup = build_simulation(make_mesh(1, 4), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.3,
                               pattern="permutation", seed=1)
        gen.start()
        assert gen._partners["ep_0_0"] == "ep_0_2"
        setup.env.run(until=1e-5)
        gen.stop()
        setup.fabric.fail_link("sw_0_1", "sw_0_2")
        gen.start()
        assert "ep_0_0" not in gen._partners
        assert all(partner in gen._routes[source]
                   for source, partner in gen._partners.items())
        setup.env.run(until=1e-4)
        assert gen.counters["packets_injected"] > 0

    def test_hotspot_concentrates_on_one_victim(self):
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.3, pattern="hotspot",
                               hotspot_fraction=0.9, seed=15)
        received = {}
        for name, entity in setup.entities.items():
            def sink(packet, port, name=name):
                received[name] = received.get(name, 0) + 1
            entity.app_handler = sink
        gen.start()
        setup.env.run(until=1e-3)
        assert gen._hotspot is not None
        total = sum(received.values())
        assert received.get(gen._hotspot, 0) > 0.6 * total


class TestWorkloadProtocol:
    """The traffic generator names its kind and reports JSON-ready
    stats: the service and the load family read both."""

    def test_traffic_generator_conforms(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        gen = TrafficGenerator(setup.fabric, load=0.2)
        assert "offered_load" in gen.stats()
        assert gen.describe()["workload"] == "traffic"


def _delivery_order(tc_vc_map):
    """Queue app packets then one TC-7 packet; return delivery TC order."""
    params = replace(DEFAULT_PARAMS, tc_vc_map=tc_vc_map)
    setup = build_simulation(make_mesh(2, 2), params=params,
                             auto_start=False)
    src = sorted(e.name for e in setup.fabric.endpoints())[0]
    endpoint = setup.fabric.device(src)
    routes = fabric_endpoint_routes(setup.fabric, src)
    dst = sorted(routes)[0]
    pool, out_port = routes[dst]
    order = []
    setup.entities[dst].app_handler = \
        lambda packet, port: order.append(packet.header.tc)

    def inject(tc):
        header = RouteHeader(pi=PI_APPLICATION, tc=tc,
                             turn_pointer=pool.bits, turn_pool=pool.pool)
        endpoint.inject(
            Packet(header=header, payload=bytes(64), src=src),
            port_index=out_port,
        )

    for _ in range(4):
        inject(0)
    inject(7)  # the management traffic class, queued last
    setup.env.run(until=1e-4)
    assert len(order) == 5
    return order


class TestQoSPreemption:
    """Pinned, fully deterministic port-arbitration check: no RNG, no
    timing model — just five packets racing out of one egress port."""

    def test_bvc_mapping_lets_management_preempt(self):
        # Strict-priority BVC mapping: TC7 rides VC1, which the port
        # arbiter drains first, so the management packet overtakes the
        # whole VC0 application backlog.
        order = _delivery_order(DEFAULT_PARAMS.tc_vc_map)
        assert order[0] == 7
        assert order[1:] == [0, 0, 0, 0]

    def test_mixed_mapping_queues_management_behind_apps(self):
        # Single-VC mapping: TC7 shares VC0's FIFO and waits out every
        # application packet queued ahead of it.
        order = _delivery_order((0,) * 8)
        assert order == [0, 0, 0, 0, 7]


class TestPaperClaim:
    def test_traffic_scarcely_influences_discovery_time(self):
        """Section 4.1's claim: management packets have priority, so
        application load barely moves the discovery time."""
        spec = make_mesh(3, 3)

        def measure(load):
            setup = build_simulation(spec, algorithm=PARALLEL,
                                     auto_start=False)
            if load:
                gen = TrafficGenerator(setup.fabric, load=load, seed=4)
                gen.attach_sinks(setup.entities)
                gen.start()
            setup.fm.start_discovery()
            return run_until_ready(setup).discovery_time

        idle = measure(None)
        loaded = measure(0.6)
        assert loaded < idle * 1.10  # within 10%
