"""Failover experiment family: kill the primary FM, measure takeover.

Covers the acceptance bar for the failover work: warm takeover on a
churned mesh64 is measurably faster than a cold rediscovery on the
same schedule, both converge with a clean audit, and a resurrected
old primary demotes itself instead of split-braining the fabric.
"""

import pytest

from repro.experiments.failover import FAMILY
from repro.experiments.family import render, summarize
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import sweep_family
from repro.manager.failover import MODES
from repro.topology.registry import resolve_topology


def run_failover(spec, **fields):
    """One failover run on the family's default (partial) manager."""
    return Scenario(kind="failover", topology=spec, manager="partial",
                    **fields).run()


class TestColdTakeover:
    def test_converges_with_clean_audit_on_mesh16(self):
        result = run_failover(
            resolve_topology("mesh16"), mode="cold", seed=0,
        )
        assert result.takeover_mode == "cold"
        assert result.missed_heartbeats >= result.miss_threshold
        assert result.detection_latency > 0
        assert result.recovery_time > 0
        assert result.converged
        assert result.audit_ok


class TestWarmTakeover:
    def test_uses_the_mirror_and_converges_on_mesh16(self):
        result = run_failover(
            resolve_topology("mesh16"), mode="warm", seed=0,
        )
        assert result.takeover_mode == "warm"
        assert result.mirror_syncs > 0
        assert result.converged
        assert result.audit_ok

    def test_warm_recovery_beats_cold_on_churned_mesh64(self):
        spec = resolve_topology("mesh64")
        cold = run_failover(spec, mode="cold", seed=3)
        warm = run_failover(spec, mode="warm", seed=3)
        assert cold.converged and cold.audit_ok
        assert warm.converged and warm.audit_ok
        assert warm.takeover_mode == "warm"
        # The acceptance bar: verify/repair from a live mirror is
        # measurably faster than rediscovering 112 devices cold.
        assert warm.recovery_time < cold.recovery_time


class TestWarmStandbyReroutes:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_churn_on_the_heartbeat_route_does_not_promote(self, mode,
                                                          seed):
        # On these seeds the churn cuts the route the standby was built
        # with.  A standby of either mode learns that from the PI-5 tee
        # and moves its heartbeat onto the mirror's route.  So it
        # detects the real kill instead of promoting while the primary
        # is alive.
        result = run_failover("4x4 mesh", mode=mode, seed=seed)
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
                          manager="partial", mode="warm", faults=3,
                          seed=4).run()
        # Three misses after the kill take 46-48 ms.
        assert result.detection_latency > 0.046
        assert result.converged and result.audit_ok


class TestFencing:
    @pytest.mark.parametrize("mode", ("warm", "cold"))
    def test_resurrected_primary_demotes_itself(self, mode):
        result = run_failover(
            resolve_topology("mesh16"), mode=mode, seed=1,
            restart_primary=True,
        )
        assert result.restart_primary
        assert result.old_primary_demoted is True
        assert not result.partitioned
        assert result.converged
        assert result.audit_ok

    @pytest.mark.parametrize("mode", ("warm", "cold"))
    def test_a_partitioned_old_primary_is_no_split_brain(self, mode):
        # Churn leaves no path between the standby and the primary's
        # switch: the standby rightly promotes before the kill, and the
        # resurrected primary, alone in its component, never sees the
        # new epoch.  That is a partition, and the run passes.
        result = Scenario(kind="failover", topology="3x3 mesh",
                          manager="full", mode=mode, faults=3, seed=6,
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
        results = sweep_family(
            FAMILY, spec, modes=("warm", "cold"), seeds=(0, 1), faults=1,
        )
        assert len(results) == 4
        rows = summarize(FAMILY, results)
        assert {row["mode"] for row in rows} == {"warm", "cold"}
        for row in rows:
            assert row["runs"] == 2
            assert row["all_converged"]
            assert row["audit_pass_rate"] == 1.0
        text = render(FAMILY, rows, title="failover")
        assert "t_recover" in text and "failover" in text


class TestScenarioIntegration:
    def test_failover_scenario_runs_and_roundtrips(self):
        scenario = Scenario(
            kind="failover", topology="mesh9", manager="partial",
            mode="warm", faults=1, heartbeat_interval=1e-3,
            miss_threshold=2, seed=0,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        result = scenario.run()
        assert result.mode == "warm"
        assert result.converged
        assert result.audit_ok

    def test_failover_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(kind="failover", topology="mesh9", mode="tepid")
        with pytest.raises(ValueError):
            Scenario(kind="failover", topology="mesh9",
                     heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            Scenario(kind="failover", topology="mesh9", miss_threshold=0)
