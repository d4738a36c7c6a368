"""Tests for the bounded restart/repair policy and convergence guard."""

import pytest

from repro.experiments.churn import run_until_quiescent
from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_ready,
)
from repro.manager import PARALLEL
from repro.topology import make_mesh


def remove_mid_walk(setup, victim):
    """Kill ``victim`` the instant the walker claims it.

    At that point its general-info read has answered but its port
    reads are still ahead — they will all time out, which is exactly
    the "retries exhausted on an already-claimed branch" failure class
    the restart policy exists for.
    """
    env = setup.env
    dsn = setup.fabric.device(victim).dsn
    guard = 0
    while dsn not in setup.fm.database and guard < 100_000:
        env.step()
        guard += 1
    assert dsn in setup.fm.database, "walker never reached the victim"
    setup.fabric.remove_device(victim)


class TestSuspectClassification:
    def test_mid_walk_death_marks_subtree_suspect(self):
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL)
        remove_mid_walk(setup, "sw_2_2")
        assert not run_until_quiescent(setup).aborted
        first = setup.fm.history[0]
        assert first.suspect_subtrees >= 1
        assert not first.aborted

    def test_policy_converges_within_budget(self):
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL)
        remove_mid_walk(setup, "sw_2_2")
        stats = run_until_quiescent(setup)
        assert not stats.aborted
        assert setup.fm.counters["discovery_restarts"] >= 1
        assert setup.fm.counters["discovery_aborted"] == 0
        assert database_matches_fabric(setup)

    def test_stats_asdict_carries_new_fields(self):
        setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL)
        stats = run_until_ready(setup)
        info = stats.asdict()
        assert info["suspect_subtrees"] == 0
        assert info["serial_mismatches"] == 0
        assert info["aborted"] is False


class TestBoundedRestarts:
    def test_zero_budget_surfaces_abort_instead_of_hanging(self):
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL)
        setup.fm.max_discovery_restarts = 0
        remove_mid_walk(setup, "sw_2_2")
        stats = run_until_quiescent(setup)
        assert stats.aborted and stats is setup.fm.history[-1]
        assert setup.fm.counters["discovery_aborted"] == 1
        # The run still terminated: ready fired, nothing is in flight.
        assert setup.fm.ready_event.triggered
        assert not setup.fm.is_discovering

    def test_raise_on_abort_false_returns_the_stats(self):
        """Returning the aborted stats, once opted into with
        ``raise_on_abort=False``, is now the only behaviour: an
        exhausted budget never raises out of ``run_until_quiescent``."""
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL)
        setup.fm.max_discovery_restarts = 0
        remove_mid_walk(setup, "sw_2_2")
        stats = run_until_quiescent(setup)
        assert stats.aborted

    def test_external_event_resets_the_streak(self):
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL)
        remove_mid_walk(setup, "sw_2_2")
        assert not run_until_quiescent(setup).aborted
        assert setup.fm._restart_streak == 0
        # A later, clean change assimilation starts from a full budget.
        setup.fabric.restore_device("sw_2_2")
        assert not run_until_quiescent(setup).aborted
        assert database_matches_fabric(setup)
        assert setup.fm._restart_streak == 0


class TestConvergenceGuard:
    def test_guard_probes_sampled_devices_after_clean_run(self):
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL,
                                 verify_sample=3, verify_seed=7)
        stats = run_until_ready(setup)
        fm = setup.fm
        assert fm.counters["guard_probes"] == 3
        assert fm.counters["guard_mismatches"] == 0
        assert not stats.aborted
        assert fm._restart_streak == 0
        assert database_matches_fabric(setup)

    def test_guard_mismatch_triggers_bounded_restart(self):
        setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL)
        run_until_ready(setup)
        fm = setup.fm
        stats = fm.history[-1]
        victim = next(
            record.dsn for record in fm.database.devices()
            if record.ingress_port is not None
        )
        fm._guard_settled(stats, {victim})
        assert fm.counters["guard_mismatches"] == 1
        # The mismatch consumed one budget slot and relaunched at once.
        assert fm._restart_streak == 1
        assert fm.is_discovering
        assert not run_until_quiescent(setup).aborted
        assert database_matches_fabric(setup)

    def test_guard_disabled_by_default(self):
        setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL)
        run_until_ready(setup)
        assert setup.fm.counters["guard_probes"] == 0


class TestPartialMidAssimilation:
    def test_target_removed_mid_assimilation_recovers(self):
        setup = build_simulation(make_mesh(4, 4), manager="partial")
        run_until_ready(setup)
        fm, env, fabric = setup.fm, setup.env, setup.fabric
        victim = "sw_2_2"

        fabric.remove_device(victim)
        assert not run_until_quiescent(setup).aborted
        assert database_matches_fabric(setup)

        # Hot-add the switch back; step until the up-burst's region
        # exploration is walking toward it, then yank it again.  The
        # in-flight reads into the region die and the manager must
        # repair or fall back to a full rediscovery — never hang.
        fabric.restore_device(victim)
        guard = 0
        while not (fm.is_assimilating and fm.discovery.exploring) \
                and guard < 200_000:
            env.step()
            guard += 1
        assert fm.discovery.exploring, "region exploration never started"
        fabric.remove_device(victim)

        stats = run_until_quiescent(setup)
        assert not stats.aborted
        assert database_matches_fabric(setup)
        # The recovery took at least one automatic action (repair
        # burst, restart, or fallback full walk).
        recovery = (
            fm.counters["subtree_repairs"]
            + fm.counters["discovery_restarts"]
            + fm.counters["partial_fallbacks"]
        )
        assert recovery >= 1
        # Bursts enter the history like full walks: every summary is
        # kept, the per-packet timeline of the newest run only.
        assert len(fm.history) >= 3
        assert fm.history[0].completions_received > 0
        assert not any(s.packet_timeline for s in fm.history[:-1])

    @staticmethod
    def _mid_burst():
        """A partial manager in the middle of a burst: ``sw_2_2`` is
        gone and the confirm read of the first report is in flight."""
        setup = build_simulation(make_mesh(4, 4), manager="partial")
        run_until_ready(setup)
        setup.fabric.remove_device("sw_2_2")
        while not setup.fm.busy:
            setup.env.step()
        assert setup.fm.busy and not setup.fm.is_discovering
        return setup

    def test_rediscover_mid_burst_is_refused(self):
        """It used to be granted: the database was cleared under the
        burst, whose next completion then raised ``DatabaseError:
        unknown device`` out of ``env.run``."""
        setup = self._mid_burst()
        with pytest.raises(RuntimeError, match="in progress"):
            setup.fm.start_discovery(trigger="change")
        assert setup.fm.is_assimilating and len(setup.fm.database) > 1
        stats = run_until_quiescent(setup)
        assert stats.algorithm == "partial" and not stats.aborted
        assert database_matches_fabric(setup)

    def test_forced_rediscover_mid_burst_drops_the_burst(self):
        setup = self._mid_burst()
        fm = setup.fm
        burst = fm.discovery
        fm.start_discovery(trigger="change", force=True)
        assert fm.is_discovering and not fm.is_assimilating
        assert burst.done and fm.discovery is not burst
        stats = run_until_quiescent(setup)
        assert stats.algorithm != "partial" and not stats.aborted
        assert database_matches_fabric(setup)
        # The dropped burst left no history entry and no ready_event
        # resolved early: two full runs, the second one complete.
        assert [s.algorithm for s in fm.history] == ["parallel"] * 2

    def test_repair_prefers_partial_machinery(self):
        # Force the repair path directly: mark a healthy subtree
        # suspect after a converged run and let the policy resolve it.
        setup = build_simulation(make_mesh(3, 3), manager="partial")
        run_until_ready(setup)
        fm = setup.fm
        suspect = next(
            record.dsn for record in fm.database.devices()
            if record.ingress_port is not None
            and any(
                port.up and index != record.ingress_port
                for index, port in record.ports.items()
            )
        )
        assert fm._resolve_inconsistency({suspect}, fm.history[-1])
        assert fm.is_assimilating  # a repair burst, not a full walk
        assert fm.counters["subtree_repairs"] == 1
        assert not run_until_quiescent(setup).aborted
        assert database_matches_fabric(setup)
        repair = next(
            s for s in fm.history if s.trigger == "repair"
        )
        assert repair.algorithm == "partial"

    def test_demotion_mid_burst_ends_the_burst(self):
        setup = self._mid_burst()
        fm = setup.fm
        burst = fm.discovery
        fm.demote()
        assert burst.done and not fm.busy and not fm.is_assimilating
        assert fm._cost_key == fm.algorithm_key
        run_until_quiescent(setup, horizon=0.5)
        assert fm.demoted and fm.discovery is burst


class TestDemotionMidWalk:
    """A demotion abandons the walk in progress: it used to cancel the
    walk's transactions and leave it running for good, so ``busy``
    stayed true and ``run_until_quiescent`` could only time out — as
    it also did for an FM demoted before its first walk finished."""

    def test_demotion_mid_discovery_ends_the_walk(self):
        setup = build_simulation(make_mesh(4, 4))
        fm, env = setup.fm, setup.env
        while len(fm.database) < 4:
            env.step()
        walk = fm.discovery
        assert fm.is_discovering and not fm.history
        fm.demote()
        assert walk.done and not fm.busy and not fm.is_discovering
        assert not fm.engine.pending
        assert fm.ready_event.triggered
        assert run_until_quiescent(setup, horizon=0.5) is None
        assert fm.demoted and fm.discovery is walk and not fm.history
