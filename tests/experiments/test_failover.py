"""Failover experiment family: kill the primary FM, measure takeover.

Covers the acceptance bar for the failover work: the takeover on a
churned mesh64 (mirror install + verify/repair) is measurably faster
than the promoted manager's own full rediscovery of the same fabric,
an unusable mirror falls back to that rediscovery, both converge with
a clean audit, and a resurrected old primary demotes itself instead of
split-braining the fabric.
"""

import pytest

from repro.experiments.churn import run_until_quiescent
from repro.experiments.failover import FAMILY, build_failover_pair
from repro.experiments.family import render, summarize
from repro.experiments.runner import database_matches_fabric, run_until_ready
from repro.experiments.scenario import Scenario
from repro.experiments.executor import run_sweep
from repro.experiments.sweep import plan
from repro.manager.consistency import audit_topology
from repro.manager.failover import SYNC_EVERY
from repro.topology.registry import resolve_topology


def run_failover(spec, **fields):
    """One failover run on the family's default (partial) manager."""
    return Scenario(kind="failover", topology=spec, manager="partial",
                    **fields).run()


class _Capture:
    """A tracer that keeps the simulation a run builds."""

    setup = None

    def install(self, setup):
        self.setup = setup

    def finalize(self, setup):
        pass


class TestRediscoveryFallback:
    def test_an_unusable_mirror_falls_back_to_rediscovery(self):
        # The standby starts with the primary's first walk: the primary
        # is busy at every sync, so no clone lands, and the kill comes
        # before the fifth answered heartbeat.  With no mirror to
        # install the promoted standby rediscovers the fabric.
        setup, standby = build_failover_pair(resolve_topology("mesh16"))
        primary = setup.fm
        standby.start()
        run_until_ready(setup)
        assert standby.heartbeats_answered < SYNC_EVERY
        assert standby.mirror_syncs == 0
        setup.fabric.remove_device(primary.endpoint.name)
        standby.note_primary_failure()
        report = setup.env.run(until=standby.takeover_event)
        setup.fm = standby.fm
        run_until_quiescent(setup)
        assert report.mode == "cold"
        assert report.detection_latency > 0
        assert report.recovery_time > 0
        assert database_matches_fabric(setup)
        assert audit_topology(setup.fabric, standby.fm).ok
        assert standby.fm.assimilation == primary.assimilation == "partial"


class TestWarmTakeover:
    def test_uses_the_mirror_and_converges_on_mesh16(self):
        result = run_failover(resolve_topology("mesh16"), seed=0)
        assert result.takeover_mode == "warm"
        assert result.mirror_syncs > 0
        assert result.converged
        assert result.audit_ok

    def test_warm_recovery_beats_cold_on_churned_mesh64(self):
        # What a cold takeover paid: the promoted manager's own full
        # rediscovery of the same post-kill fabric, run once the
        # takeover has converged.
        capture = _Capture()
        warm = Scenario(kind="failover", topology="8x8 mesh",
                        manager="partial", seed=3).run(tracer=capture)
        assert warm.converged and warm.audit_ok
        assert warm.takeover_mode == "warm"
        setup = capture.setup
        started = setup.env.now
        setup.fm.start_discovery(trigger="failover")
        run_until_ready(setup)
        cold = setup.env.now - started
        assert len(setup.fm.database) == warm.devices_recovered
        # The acceptance bar: verify/repair from a live mirror is
        # measurably faster than rediscovering 127 devices (11.7 ms
        # against 23.3 ms).
        assert warm.recovery_time < 0.6 * cold


class TestWarmStandbyReroutes:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_churn_on_the_heartbeat_route_does_not_promote(self, seed):
        # On these seeds the churn cuts the route the standby was built
        # with.  The standby learns that from the PI-5 tee and moves its
        # heartbeat onto the mirror's route.  So it detects the real
        # kill instead of promoting while the primary is alive.
        result = run_failover("4x4 mesh", seed=seed)
        assert result.detection_latency is not None
        assert result.detection_latency > 0
        assert result.converged and result.audit_ok

    def test_a_sync_during_a_burst_keeps_the_tee_s_marks(self):
        # Here churn cuts the heartbeat route while the primary is in a
        # repair burst whose queued events its database has not applied
        # yet.  A mirror copied from that database forgets a port the
        # tee marked down, and the next re-route runs the heartbeat
        # into it: two misses before the kill, detection in 12 ms, and
        # a warm takeover that does not converge.
        result = Scenario(kind="failover", topology="8x8 mesh",
                          manager="partial", faults=3, seed=4).run()
        # Three misses after the kill take 46-48 ms.
        assert result.detection_latency > 0.046
        assert result.converged and result.audit_ok


class TestFencing:
    def test_resurrected_primary_demotes_itself(self):
        result = run_failover(
            resolve_topology("mesh16"), seed=1, restart_primary=True,
        )
        assert result.restart_primary
        assert result.old_primary_demoted is True
        assert not result.partitioned
        assert result.converged
        assert result.audit_ok

    def test_a_partitioned_old_primary_is_no_split_brain(self):
        # Churn leaves no path between the standby and the primary's
        # switch: the standby rightly promotes before the kill, and the
        # resurrected primary, alone in its component, never sees the
        # new epoch.  That is a partition, and the run passes.
        result = Scenario(kind="failover", topology="3x3 mesh",
                          manager="full", faults=3, seed=6,
                          restart_primary=True).run()
        assert result.detection_latency is None
        assert result.partitioned
        assert result.old_primary_demoted is False
        assert FAMILY.verdict(result) is None
        row, = summarize(FAMILY, [result])
        assert row["all_fenced"]


class TestSweep:
    def test_sweep_summarize_render(self):
        spec = resolve_topology("mesh9")
        results = run_sweep(plan(FAMILY, spec, seeds=(0, 1, 2, 3),
                                 faults=1))
        assert len(results) == 4
        rows = summarize(FAMILY, results)
        assert [row["manager"] for row in rows] == ["partial"]
        for row in rows:
            assert row["cold_fallbacks"] == 0
            assert row["runs"] == 4
            assert row["all_converged"]
            assert row["audit_pass_rate"] == 1.0
        text = render(FAMILY, rows, title="failover")
        assert "t_recover" in text and "failover" in text


class TestScenarioIntegration:
    def test_failover_scenario_runs_and_roundtrips(self):
        scenario = Scenario(
            kind="failover", topology="mesh9", manager="partial",
            faults=1, heartbeat_interval=1e-3,
            miss_threshold=2, seed=0,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        result = scenario.run()
        assert result.takeover_mode == "warm"
        assert result.converged
        assert result.audit_ok

    def test_failover_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(kind="failover", topology="mesh9",
                     heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            Scenario(kind="failover", topology="mesh9", miss_threshold=0)
