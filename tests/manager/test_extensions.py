"""Tests for the future-work extension: partial assimilation."""

import hashlib

import pytest

from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_discovery_count,
    run_until_ready,
)
from repro.manager import PARALLEL, FabricManager
from repro.manager.fm import MANAGER_KINDS
from repro.protocols.entity import ManagementEntity
from repro.topology import make_mesh


def build_partial(spec, **kwargs):
    """A fabric wired to a partial-assimilation FM by hand."""
    from repro.sim import Environment

    env = Environment()
    fabric = spec.build(env)
    entities = {
        name: ManagementEntity(device)
        for name, device in fabric.devices.items()
    }
    host = spec.fm_host
    fm = FabricManager(
        fabric.device(host), entities[host], auto_start=False,
        assimilation="partial", **kwargs
    )
    fabric.power_up()

    class Setup:
        pass

    setup = Setup()
    setup.env, setup.fabric, setup.entities, setup.fm, setup.spec = (
        env, fabric, entities, fm, spec,
    )
    return setup


class TestPartialAssimilation:
    def test_removal_assimilated_with_few_packets(self):
        setup = build_partial(make_mesh(4, 4))
        setup.fm.start_discovery()
        full = run_until_ready(setup)

        setup.fabric.remove_device("sw_2_2")
        partial = run_until_discovery_count(setup, 2)
        setup.env.run(until=setup.fm.ready_event)

        assert partial.algorithm == "partial"
        assert database_matches_fabric(setup)
        # A confirm read per reporting neighbour (4 mesh neighbours +
        # none for the dead endpoint) vs ~600 for full rediscovery.
        assert partial.requests_sent < full.requests_sent / 10

    def test_removal_faster_than_full_rediscovery(self):
        spec = make_mesh(4, 4)
        # Full rediscovery baseline.
        base = build_simulation(spec, algorithm=PARALLEL, auto_start=False)
        base.fm.start_discovery()
        run_until_ready(base)
        base.fabric.remove_device("sw_2_2")
        full = run_until_discovery_count(base, 2)

        setup = build_partial(spec)
        setup.fm.start_discovery()
        run_until_ready(setup)
        setup.fabric.remove_device("sw_2_2")
        partial = run_until_discovery_count(setup, 2)

        # The fixed liveness-probe timeout (1 ms) dominates at this
        # small scale; the packet saving is the >10x headline (above).
        assert partial.discovery_time < full.discovery_time / 2

    def test_addition_assimilated_correctly(self):
        setup = build_partial(make_mesh(3, 3))
        setup.fabric.remove_device("sw_2_2")
        setup.fm.start_discovery()
        run_until_ready(setup)

        setup.fabric.restore_device("sw_2_2")
        partial = run_until_discovery_count(setup, 2)
        setup.env.run(until=setup.fm.ready_event)

        assert partial.algorithm == "partial"
        assert database_matches_fabric(setup)
        # The new region (switch + endpoint) was explored: general +
        # port reads happened, but far fewer than a full run.
        assert partial.requests_sent >= 1 + 16 + 1
        assert partial.requests_sent < 60

    def test_routes_usable_after_partial_removal(self):
        """Surviving devices remain addressable (routes recomputed)."""
        setup = build_partial(make_mesh(3, 3))
        setup.fm.start_discovery()
        run_until_ready(setup)
        # Remove a switch that sits on many discovered shortest paths.
        setup.fabric.remove_device("sw_1_1")
        run_until_discovery_count(setup, 2)
        setup.env.run(until=setup.fm.ready_event)
        assert database_matches_fabric(setup)

        # Address the farthest endpoint through the updated routes.
        from repro.capability import BASELINE_CAP_ID
        from repro.protocols import pi4

        record = setup.fm.database.device(
            setup.fabric.device("ep_2_2").dsn
        )
        got = []
        setup.fm.send_request(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=0),
            record.route(), record.out_port,
            callback=lambda c, _ctx: got.append(c),
        )
        setup.env.run(until=setup.env.now + 1e-3)
        assert len(got) == 1 and got[0] is not None

    def test_unknown_reporter_falls_back_to_full(self):
        setup = build_partial(make_mesh(3, 3))
        setup.fm.start_discovery()
        run_until_ready(setup)

        # Forge an event from a DSN the FM has never seen.
        from repro.protocols import pi5

        setup.fm.handle_local_event(
            pi5.PortEvent(reporter_dsn=0xDEAD, port=0, up=False, seq=1)
        )
        stats = run_until_discovery_count(setup, 2)
        assert stats.algorithm != "partial"  # full fallback ran
        assert setup.fm.counters["partial_fallbacks"] >= 1

    def test_change_fallback_timeline_numbers(self):
        """A burst abandoned for a full walk carries its completions
        into the full run's count but not into its timeline, so the
        timeline's packet numbers start past them.  The numbers derived
        from the flat timeline, and its times, are the ``(n, t)`` pairs
        the timeline stored when it was a list of them."""
        setup = build_simulation(make_mesh(4, 4), manager="partial")
        run_until_ready(setup)
        start = setup.env.now
        setup.fabric.remove_device("sw_1_1")
        setup.env.run(until=start + 2e-5)
        setup.fabric.remove_device("sw_1_2")
        setup.env.run(until=start + 0.05)
        stats = setup.fm.history[-1]
        assert stats.trigger == "change-fallback"
        times = stats.packet_timeline
        assert (stats.completions_received, len(times)) == (276, 274)
        first = stats.completions_received - len(times) + 1
        pairs = list(enumerate(times, first))
        assert pairs[:2] == [(3, 0.020854054999999965),
                             (4, 0.020869579999999964)]
        assert pairs[-2:] == [(275, 0.024497240999999986),
                              (276, 0.024515792999999963)]
        assert hashlib.sha256(repr(list(times)).encode()).hexdigest() == (
            "81a21fd929844a1670b497b7904755d740d0f22fdc3c937e8ec0f27d37cddd17")


class TestOneManagerClass:
    """Partial assimilation is a value the FM is built with."""

    @pytest.mark.parametrize("algorithm", ["serial_packet", "serial_device",
                                           PARALLEL])
    def test_a_partial_fm_walks_at_its_algorithms_cost(self, algorithm):
        """Only a burst is charged Parallel's per-packet FM time; the
        initial walk of a partial FM costs what a full FM's does (it
        used to read 5.520 / 4.626 ms against 7.452 / 5.592 ms for the
        serial algorithms on this mesh)."""
        runs = [run_until_ready(build_simulation(
            make_mesh(4, 4), algorithm=algorithm, manager=kind))
            for kind in MANAGER_KINDS]
        full, partial = ((s.discovery_time, s.total_packets, s.total_bytes)
                         for s in runs)
        assert partial == full

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_the_kind_reaches_the_fm_the_service_and_the_standby(
            self, kind):
        from repro.experiments.failover import build_failover_pair
        from repro.service import api
        from repro.service.driver import SimulationDriver

        setup = build_simulation(make_mesh(3, 3), manager=kind)
        assert isinstance(setup.fm, FabricManager)
        assert not FabricManager.__subclasses__()
        assert setup.fm.assimilation == kind
        run_until_ready(setup)
        status = api.op_status(setup, SimulationDriver(setup), {})
        assert status["manager"] == kind
        _, standby = build_failover_pair(make_mesh(3, 3), manager=kind)
        assert standby.fm.assimilation == kind

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown manager kind"):
            build_simulation(make_mesh(2, 2), manager="incremental")
