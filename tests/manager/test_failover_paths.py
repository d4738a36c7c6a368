"""Tests for FM failover."""

import pytest

from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_ready,
)
from repro.manager import PARALLEL, FabricManager
from repro.manager.failover import FailoverReport, StandbyManager
from repro.routing.paths import fabric_route
from repro.topology import make_mesh


def primary_and_standby(spec):
    """Primary FM on the spec's host, standby on the far corner."""
    setup = build_simulation(spec, algorithm=PARALLEL, auto_start=False)
    standby_host = sorted(
        ep for ep in spec.endpoints if ep != (spec.fm_host or "")
    )[-1]
    standby_fm = FabricManager(
        setup.fabric.device(standby_host),
        setup.entities[standby_host],
        algorithm=PARALLEL,
        auto_start=False,
    )
    route = fabric_route(setup.fabric, standby_host, spec.fm_host)
    standby = StandbyManager(
        standby_fm, setup.fm, route,
        heartbeat_interval=1e-3, miss_threshold=2,
    )
    return setup, standby


class TestFailover:
    def test_healthy_primary_keeps_standby_passive(self):
        setup, standby = primary_and_standby(make_mesh(3, 3))
        setup.fm.start_discovery()
        run_until_ready(setup)
        standby.start()
        setup.env.run(until=setup.env.now + 20e-3)
        assert not standby.active
        assert standby.heartbeats_answered >= 10
        assert standby.misses == 0

    def test_takeover_after_primary_death(self):
        setup, standby = primary_and_standby(make_mesh(3, 3))
        setup.fm.start_discovery()
        run_until_ready(setup)
        standby.start()
        setup.env.run(until=setup.env.now + 5e-3)

        # Kill the primary FM's endpoint (heartbeats start failing).
        setup.fabric.remove_device(setup.fm.endpoint.name)
        report = setup.env.run(until=standby.takeover_event)

        assert standby.active
        assert report.missed_heartbeats >= 2
        assert report.recovery_time > 0
        assert report.mode == "warm"
        # The standby installed its mirror and repaired it to the
        # post-failure topology: everything reachable except the dead
        # primary.
        found = len(standby.fm.database)
        reachable = len(
            setup.fabric.reachable_devices(standby.fm.endpoint.name)
        )
        assert found == reachable

    def test_validation(self):
        setup, standby = primary_and_standby(make_mesh(2, 2))
        with pytest.raises(ValueError):
            StandbyManager(standby.fm, setup.fm, (None, 0),
                           heartbeat_interval=0, miss_threshold=2)
        with pytest.raises(ValueError):
            StandbyManager(standby.fm, setup.fm, (None, 0),
                           heartbeat_interval=1e-3, miss_threshold=0)
        standby.start()
        with pytest.raises(RuntimeError):
            standby.start()

    def test_a_death_after_the_promotion_is_not_detected(self):
        # Promoted at 1 s, primary killed at 1.5 s: there was no death
        # to detect, so no latency either (not -0.5 s).
        report = FailoverReport(detected_at=1.0, discovery_done_at=2.0,
                                missed_heartbeats=3, failed_at=1.5)
        assert report.detection_latency is None
        report.failed_at = 0.5
        assert report.detection_latency == 0.5


class TestStandbyShutdown:
    def test_stop_halts_heartbeats_promptly(self):
        setup, standby = primary_and_standby(make_mesh(3, 3))
        setup.fm.start_discovery()
        run_until_ready(setup)
        standby.start()
        setup.env.run(until=setup.env.now + 5e-3)
        standby.stop()
        sent = standby.heartbeats_sent
        t_stop = setup.env.now
        # The pending interval timeout was cancelled: draining the
        # schedule sends no further heartbeat and never promotes.
        setup.env.run()
        assert standby.heartbeats_sent == sent
        assert not standby.active
        # Nothing standby-related outlived the stop by more than one
        # in-flight heartbeat round trip.
        assert setup.env.now < t_stop + standby.heartbeat_interval

    def test_stop_is_idempotent_and_safe_before_start(self):
        setup, standby = primary_and_standby(make_mesh(3, 3))
        standby.stop()  # never started: no-op
        standby.stop()
        assert not standby._started
        setup2, standby2 = primary_and_standby(make_mesh(3, 3))
        setup2.fm.start_discovery()
        run_until_ready(setup2)
        standby2.start()
        setup2.env.run(until=setup2.env.now + 3e-3)
        standby2.stop()
        standby2.stop()  # repeated stop must not raise
        setup2.env.run()
        assert not standby2.active

    def test_stop_wins_against_a_dead_primary(self):
        setup, standby = primary_and_standby(make_mesh(3, 3))
        setup.fm.start_discovery()
        run_until_ready(setup)
        standby.start()
        setup.env.run(until=setup.env.now + 5e-3)
        # Primary dies; before the miss threshold trips, operations
        # shuts the standby down (e.g. planned maintenance).
        setup.fabric.remove_device(setup.fm.endpoint.name)
        standby.stop()
        setup.env.run()
        assert not standby.active
        assert not standby.takeover_event.triggered
