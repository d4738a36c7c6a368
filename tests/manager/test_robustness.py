"""Robustness tests: load, timeouts, and mid-discovery failures."""

import pytest

from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_ready,
)
from repro.manager import ALGORITHMS, PARALLEL, SERIAL_PACKET
from repro.topology import make_mesh, make_torus


class TestLargeFabricRegression:
    """Regression for the retry storm found on the 10x10 torus: the
    FM's serial processing backlog must not count against the request
    timeout, or the parallel algorithm melts down under its own load."""

    def test_parallel_torus_no_spurious_timeouts(self):
        setup = build_simulation(make_torus(6, 6), algorithm=PARALLEL,
                                 auto_start=False)
        setup.fm.start_discovery()
        stats = run_until_ready(setup)
        assert stats.timeouts == 0
        assert stats.retries == 0
        assert database_matches_fabric(setup)

    def test_packet_counts_match_across_algorithms_on_torus(self):
        counts = {}
        for algorithm in ALGORITHMS:
            setup = build_simulation(make_torus(4, 4), algorithm=algorithm,
                                     auto_start=False)
            setup.fm.start_discovery()
            stats = run_until_ready(setup)
            counts[algorithm] = stats.requests_sent
        assert len(set(counts.values())) == 1


class TestMidDiscoveryFailure:
    """A device dying *during* discovery must not hang the FM."""

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_discovery_terminates_despite_device_death(self, algorithm):
        setup = build_simulation(make_mesh(4, 4), algorithm=algorithm,
                                 auto_start=False,
                                 request_timeout=0.2e-3, max_retries=1)
        fm = setup.fm
        fm.start_discovery()

        # Kill a far-corner switch shortly after discovery begins, while
        # requests to it may be outstanding or queued.
        def kill(_event):
            if setup.fabric.device("sw_3_3").active:
                setup.fabric.remove_device("sw_3_3")

        timer = setup.env.timeout(0.3e-3)
        timer.callbacks.append(kill)

        stats = run_until_ready(setup)
        # Discovery terminated; the removed region is simply absent or
        # was captured before the death — either way the FM is live and
        # produced a database without hanging.
        assert stats.finished_at is not None
        assert len(fm.database) >= 1

    def test_timeout_and_retry_counters(self):
        """Requests to a dead device time out and are retried."""
        setup = build_simulation(make_mesh(3, 3), algorithm=SERIAL_PACKET,
                                 auto_start=False,
                                 request_timeout=0.1e-3, max_retries=2)
        fm = setup.fm
        fm.start_discovery()

        # Let the FM learn about sw_0_1 (east of the FM's switch) and
        # then kill it silently mid-exploration.
        def kill(_event):
            if setup.fabric.device("sw_1_0").active:
                # Power off WITHOUT failing links first: requests routed
                # through it are lost with no PI-5 to warn the FM.
                setup.fabric.device("sw_1_0").power_off()

        timer = setup.env.timeout(0.25e-3)
        timer.callbacks.append(kill)
        stats = run_until_ready(setup)
        assert stats.finished_at is not None
        assert stats.timeouts + stats.retries > 0

    def test_rediscovery_after_failed_discovery_recovers(self):
        """After a mid-discovery death, a later full rediscovery gets
        the correct (post-change) topology."""
        setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL,
                                 auto_start=False,
                                 request_timeout=0.2e-3, max_retries=1)
        fm = setup.fm
        fm.start_discovery()

        def kill(_event):
            if setup.fabric.device("sw_2_2").active:
                setup.fabric.device("sw_2_2").power_off()

        setup.env.timeout(0.2e-3).callbacks.append(kill)
        run_until_ready(setup)

        # Now take the links down properly and rediscover.
        for port in setup.fabric.device("sw_2_2").ports:
            if port.link is not None and port.link.up:
                port.link.take_down()
        setup.env.run(until=setup.env.now + 1e-4)
        if fm.is_discovering:
            setup.env.run(until=fm.ready_event)
        else:
            fm.start_discovery(trigger="manual")
            setup.env.run(until=fm.ready_event)
        assert database_matches_fabric(setup)


class TestRouteBeyondTheTurnPool:
    """A device whose route needs more than the header's 64 turn bits
    is out of this FM's reach: skipped and counted, never an exception
    through ``env.run()``."""

    #: 1x19 mesh, FM on the first switch's endpoint: 16 four-bit turns
    #: fit, so switches 0-16 and the endpoints of switches 0-15 do;
    #: switch 17 and switch 16's endpoint are found active and skipped.
    REACHABLE = 33

    @pytest.mark.parametrize("manager", ["full", "partial"])
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_discovery_finishes_over_the_reachable_devices(
            self, algorithm, manager):
        setup = build_simulation(make_mesh(1, 19), algorithm=algorithm,
                                 manager=manager)
        stats = run_until_ready(setup)
        assert len(setup.fabric.devices) == 38
        assert stats.devices_found == self.REACHABLE
        assert setup.fm.counters["targets_out_of_reach"] == 2
        assert stats.abandoned_targets == 0 and stats.timeouts == 0
        known = {record.dsn for record in setup.fm.database.devices()}
        far = {setup.fabric.device(name).dsn
               for name in ("sw_0_17", "sw_0_18", "ep_0_16", "ep_0_18")}
        assert not known & far
        assert setup.fabric.device("sw_0_16").dsn in known

    def test_a_fitting_route_is_not_counted(self):
        setup = build_simulation(make_mesh(1, 17), algorithm=PARALLEL)
        stats = run_until_ready(setup)
        assert stats.devices_found == len(setup.fabric.devices) - 1
        assert setup.fm.counters["targets_out_of_reach"] == 1
        setup = build_simulation(make_mesh(1, 16), algorithm=PARALLEL)
        run_until_ready(setup)
        assert database_matches_fabric(setup)
        assert setup.fm.counters["targets_out_of_reach"] == 0

    def test_port_up_at_the_edge_of_reach_ends_its_burst(self):
        """The partial manager explores behind a port that came up; if
        all that is there is out of reach, the burst still finishes."""
        setup = build_simulation(make_mesh(1, 19), algorithm=PARALLEL,
                                 manager="partial")
        run_until_ready(setup)
        fm, env = setup.fm, setup.env
        link = next(link for link in setup.fabric.links
                    if "sw_0_16" in repr(link) and "sw_0_17" in repr(link))
        link.take_down()
        env.run(until=env.now + 5e-3)
        bursts = len(fm.history)
        link.bring_up()
        env.run(until=env.now + 5e-3)
        assert fm.counters["targets_out_of_reach"] == 3
        assert len(fm.history) == bursts + 1
        assert not fm.busy and not fm.discovery.exploring

    def test_churn_that_stretches_a_route_past_the_pool(self):
        """The service's churn on the 8x8 mesh, seed 1: after 11
        faults ``TurnPoolError`` used to come out of ``env.run()``."""
        from repro.topology import resolve_topology
        from repro.workloads.faults import FaultInjector
        spec = resolve_topology("mesh64")
        setup = build_simulation(spec, algorithm=PARALLEL)
        injector = FaultInjector(
            setup.fabric, mean_interval=2e-3, protect=[spec.fm_host],
            seed=1, fm=setup.fm,
        )
        setup.env.run(until=injector.run(faults=40))
        assert len(injector.log) == 40
        assert setup.fm.counters["targets_out_of_reach"] > 0
