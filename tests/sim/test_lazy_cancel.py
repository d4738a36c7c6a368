"""Tests for lazy (tombstone) cancellation and the callback fast path.

``Environment.cancel`` marks events instead of rebuilding the heap;
these tests pin down the observable contract: cancelled events never
fire, cancellation of dead events is a no-op, tombstones do not disturb
the ordering of live events, and the heap stays bounded under
schedule/cancel churn.
"""

from repro.sim import Deferred, Environment, Infinity
from repro.sim.core import COMPACT_THRESHOLD


class TestLazyCancel:
    def test_cancelled_timeout_callbacks_never_run(self):
        env = Environment()
        fired = []
        victim = env.timeout(1.0)
        victim.callbacks.append(lambda ev: fired.append(env.now))
        env.timeout(2.0)  # keep the run alive past the victim's time
        assert env.cancel(victim) is True
        env.run()
        assert fired == []
        assert env.now == 2.0

    def test_cancel_is_one_shot(self):
        env = Environment()
        victim = env.timeout(1.0)
        assert env.cancel(victim) is True
        assert env.cancel(victim) is False  # already a tombstone

    def test_cancel_processed_event_returns_false(self):
        env = Environment()
        done = env.timeout(1.0)
        env.run()
        assert done.processed
        assert env.cancel(done) is False

    def test_cancel_pending_event_returns_false(self):
        env = Environment()
        assert env.cancel(env.event()) is False

    def test_tombstones_preserve_same_timestamp_ordering(self):
        env = Environment()
        order = []

        def note(tag):
            return lambda ev: order.append(tag)

        timeouts = {}
        for tag in "abcde":
            timeouts[tag] = env.timeout(1.0)
            timeouts[tag].callbacks.append(note(tag))
        env.cancel(timeouts["b"])
        env.cancel(timeouts["d"])
        env.run()
        # Live events at an equal timestamp still fire in creation
        # order; the interleaved tombstones are silently discarded.
        assert order == ["a", "c", "e"]

    def test_heap_bounded_under_schedule_cancel_churn(self):
        env = Environment()
        backlog = 50  # live far-future events pinning the heap
        for _ in range(backlog):
            env.timeout(1000.0)
        for _ in range(50 * COMPACT_THRESHOLD):
            env.cancel(env.timeout(500.0))
        # Compaction keeps the heap within a constant factor of the
        # live count instead of growing with the churn count.
        assert len(env._queue) <= 2 * (backlog + COMPACT_THRESHOLD + 1)
        assert env.vitals()["compactions"] > 0
        env.run()
        assert env.now == 1000.0

    def test_peek_skips_tombstones(self):
        env = Environment()
        victim = env.timeout(1.0)
        env.timeout(2.0)
        env.cancel(victim)
        assert env.peek() == 2.0

    def test_peek_empty_after_all_cancelled(self):
        env = Environment()
        env.cancel(env.timeout(1.0))
        assert env.peek() == Infinity


class TestScheduleCallback:
    def test_fires_at_the_right_time(self):
        env = Environment()
        fired = []
        handle = env.schedule_callback(1.5, lambda ev: fired.append(env.now))
        assert isinstance(handle, Deferred)
        env.run()
        assert fired == [1.5]

    def test_orders_like_a_timeout(self):
        env = Environment()
        order = []
        first = env.timeout(1.0)
        first.callbacks.append(lambda ev: order.append("timeout-1"))
        env.schedule_callback(1.0, lambda ev: order.append("deferred"))
        second = env.timeout(1.0)
        second.callbacks.append(lambda ev: order.append("timeout-2"))
        env.run()
        # The deferred occupies the same scheduling slot a Timeout
        # created at that point would have.
        assert order == ["timeout-1", "deferred", "timeout-2"]

    def test_urgent_priority_sorts_first(self):
        env = Environment()
        order = []
        env.schedule_callback(1.0, lambda ev: order.append("normal"))
        from repro.sim.events import URGENT

        env.schedule_callback(1.0, lambda ev: order.append("urgent"), URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_handle_is_cancellable(self):
        env = Environment()
        fired = []
        handle = env.schedule_callback(1.0, lambda ev: fired.append(1))
        env.timeout(2.0)
        assert env.cancel(handle) is True
        env.run()
        assert fired == []
