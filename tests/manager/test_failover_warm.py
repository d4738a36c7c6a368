"""Warm standby mechanics: mirror upkeep, promotion, and fencing.

The experiment-level behaviour (the takeover beats a rediscovery,
fencing duel after a resurrection) lives in ``tests/experiments/test_failover.py``; these
tests poke the :class:`~repro.manager.failover.StandbyManager` and the
FM's ownership fencing directly.
"""

import gc

from repro.experiments.failover import build_failover_pair
from repro.experiments.runner import run_until_ready
from repro.manager.failover import SYNC_EVERY
from repro.topology.registry import resolve_topology


def warm_pair(name="mesh9", **kwargs):
    setup, standby = build_failover_pair(
        resolve_topology(name), **kwargs,
    )
    run_until_ready(setup)
    standby.start()
    return setup, standby


def pending_reads(env) -> int:
    """Heartbeat interval timers on the heap that are still due."""
    return sum(
        1 for _time, _priority, _seq, entry, args in env._queue
        if args is None and not entry._cancelled and any(
            getattr(callback, "__qualname__", "").endswith(
                "_sleep.<locals>.read")
            for callback in entry.callbacks or ())
    )


def steps(setup, standby, count):
    """Run ``count`` quarter-heartbeat steps, yielding after each."""
    for _ in range(count):
        setup.env.run(until=setup.env.now
                      + standby.heartbeat_interval / 4)
        yield


class TestWarmMirror:
    def test_mirror_tracks_the_primary_database(self):
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 5 * standby.sync_interval)
        assert standby.mirror_syncs > 1
        assert len(standby.mirror) == len(setup.fm.database)
        assert setup.fm.endpoint.dsn in standby.mirror

    def test_pi5_tee_applies_primary_events_to_the_mirror(self):
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 2 * standby.sync_interval)
        # Fail a switch-to-switch link; the primary's PI-5 events are
        # teed into the mirror before the next full sync runs.
        link = next(
            link for link in setup.fabric.links
            if link.a_port.device.kind == "switch"
            and link.b_port.device.kind == "switch"
        )
        setup.fabric.fail_link(link.a_port.device.name,
                               link.b_port.device.name)
        setup.env.run(until=setup.env.now + standby.heartbeat_interval)
        assert standby.mirror_events > 0

    def test_stop_detaches_the_tee(self):
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 2e-3)
        standby.stop()
        assert standby._on_primary_event not in setup.fm.pi5_listeners
        standby.stop()  # idempotent


class TestOneProbeChain:
    """The heartbeat is the only read the standby sends the primary,
    and every ``SYNC_EVERY``-th answered one refreshes the mirror."""

    def test_the_mirror_syncs_on_every_fifth_answered_heartbeat(self):
        # Six misses to promote: the kill leaves more timed-out reads
        # than SYNC_EVERY before the takeover, so a sync that counted
        # reads sent instead of reads answered would show.
        setup, standby = warm_pair(miss_threshold=6)
        for _ in steps(setup, standby, 200):
            # The bootstrap clone, then one per SYNC_EVERY answers.
            assert standby.mirror_syncs == (
                1 + standby.heartbeats_answered // SYNC_EVERY)
        answered = standby.heartbeats_answered
        assert answered >= 3 * SYNC_EVERY
        setup.fabric.remove_device(setup.fm.endpoint.name)
        while not standby.active:
            next(steps(setup, standby, 1))
            assert standby.heartbeats_answered == answered
            assert standby.mirror_syncs == 1 + answered // SYNC_EVERY
        assert standby.heartbeats_sent - answered > SYNC_EVERY

    def test_a_busy_primary_is_not_copied(self):
        # Mid-walk, the primary's database lags the tee (here a
        # half-walked rediscovery that already holds the standby): a
        # sync then leaves the mirror as it is.
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 5 * standby.heartbeat_interval)
        synced = standby.mirror_syncs, len(standby.mirror)
        setup.fm.start_discovery(trigger="change", force=True)
        half_walked = 0
        while setup.fm.busy:
            half_walked += standby.fm.endpoint.dsn in setup.fm.database
            standby._clone_primary()
            setup.env.step()
            assert (standby.mirror_syncs, len(standby.mirror)) == synced
        assert half_walked

    def test_at_most_one_interval_timer_is_pending(self):
        setup, standby = warm_pair()
        for _ in steps(setup, standby, 100):
            assert pending_reads(setup.env) <= 1
        standby.stop()
        assert pending_reads(setup.env) == 0

    def test_promotion_cancels_the_interval_timer(self):
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 5 * standby.heartbeat_interval)
        standby.promote()
        assert pending_reads(setup.env) == 0
        setup.env.run(until=standby.takeover_event)
        assert pending_reads(setup.env) == 0

    def test_an_ended_chain_leaves_nothing_for_the_collector(self):
        """Syncs included, the heartbeat chain makes no reference cycle
        (:meth:`Environment.run` holds the collector's young trigger
        up, so one would pile up until a collection)."""
        setup, standby = warm_pair()
        gc.collect()
        gc.disable()
        try:
            setup.env.run(until=setup.env.now
                          + 6 * SYNC_EVERY * standby.heartbeat_interval)
            assert standby.mirror_syncs > 5
            standby.stop()
            setup.env.run(until=setup.env.now
                          + 2 * standby.heartbeat_interval)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPromotion:
    def test_promote_is_idempotent(self):
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 6e-3)
        first = standby.promote()
        second = standby.promote()
        assert first is second is standby.takeover_event
        report = setup.env.run(until=first)
        assert standby.active
        assert report is standby.report

    def test_late_heartbeat_reply_after_promotion_is_ignored(self):
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 6e-3)
        standby.promote()
        setup.env.run(until=standby.takeover_event)
        sent = standby.heartbeats_sent
        misses = standby.misses
        # Drain well past several would-be heartbeat intervals: the
        # monitor is parked, so neither counter may move again.
        setup.env.run(until=setup.env.now
                      + 10 * standby.heartbeat_interval)
        assert standby.heartbeats_sent == sent
        assert standby.misses == misses


class TestFencing:
    def test_loser_demotes_in_a_two_manager_duel(self):
        # Promote the standby while the primary is still alive: the
        # takeover stamps every claim with epoch 2.  When the old
        # primary next walks the fabric, its fencing pass observes the
        # newer generation and demotes it — the split-brain guard.
        setup, standby = warm_pair()
        setup.env.run(until=setup.env.now + 6e-3)
        setup.env.run(until=standby.promote())
        assert standby.active
        assert standby.fm.epoch > setup.fm.epoch
        primary = setup.fm
        primary.start_discovery(trigger="change", force=True)
        deadline = setup.env.now + 50e-3
        while not primary.demoted and setup.env.now < deadline:
            setup.env.run(until=setup.env.now + 1e-3)
        assert primary.demoted
        assert not standby.fm.demoted
        assert primary.counters.asdict()["fm_demotions"] == 1

    def test_demote_is_idempotent(self):
        setup, standby = warm_pair()
        fm = setup.fm
        fm.demote(reason="test")
        assert fm.demoted
        fm.demote(reason="again")
        assert fm.counters.asdict()["fm_demotions"] == 1
