"""Unit tests for the simulation environment (clock, heap, run loop)."""

import pytest

from repro.sim.events import URGENT
from repro.sim import (
    EmptySchedule,
    Environment,
    Infinity,
    SimulationError,
)


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_can_be_set():
    assert Environment(initial_time=5.0).now == 5.0


def test_run_until_time_advances_clock():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=3.0)
    with pytest.raises(ValueError):
        env.run(until=3.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_without_until_exhausts_queue():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [2.5]
    assert env.now == 2.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    env.run()  # processes ev
    assert env.run(until=ev) == 42


def test_run_until_event_never_triggered_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == Infinity
    env.timeout(4.0)
    env.timeout(2.0)
    assert env.peek() == 2.0


def test_events_at_same_time_fifo_ordered():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_clock_is_monotonic_across_many_events():
    env = Environment()
    stamps = []

    def proc(env, delay):
        yield env.timeout(delay)
        stamps.append(env.now)

    import random

    rng = random.Random(7)
    delays = [rng.uniform(0, 10) for _ in range(200)]
    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == 200


def test_nested_process_start_during_run():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(1.0)
        log.append(("child", env.now))

    def parent(env):
        yield env.timeout(0.5)
        env.process(child(env))
        log.append(("parent", env.now))

    env.process(parent(env))
    env.run()
    assert log == [("parent", 0.5), ("child", 1.5)]


def test_cancel_removes_scheduled_timeout():
    env = Environment()
    keep = env.timeout(1.0)
    stale = env.timeout(100.0)
    assert env.cancel(stale) is True
    env.run()
    assert env.now == 1.0
    assert keep.processed
    assert not stale.processed


def test_cancel_unscheduled_or_processed_event_is_a_noop():
    env = Environment()
    assert env.cancel(env.event()) is False  # never scheduled
    done = env.timeout(1.0)
    env.run()
    assert env.cancel(done) is False  # already processed


def test_cancel_preserves_heap_order():
    env = Environment()
    stamps = []

    def proc(env, delay):
        yield env.timeout(delay)
        stamps.append(env.now)

    for delay in (5.0, 1.0, 3.0):
        env.process(proc(env, delay))
    victim = env.timeout(2.0)
    env.cancel(victim)
    env.run()
    assert stamps == [1.0, 3.0, 5.0]


# -- deferred materialisation: reserve / schedule_at / has_passed / quiet ------

def test_reserved_slot_pushed_late_runs_where_the_eager_push_would():
    """Three timers tie at t=1; the middle one is reserved at its draw
    point and only pushed later — it still runs in the middle."""
    env = Environment()
    order = []
    env.schedule_callback(1.0, lambda ev: order.append("a"))
    middle = env.reserve()
    env.schedule_callback(1.0, lambda ev: order.append("c"))
    env.schedule_callback(
        0.5, lambda ev: env.schedule_at(1.0, middle, order.append, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_schedule_at_refuses_a_slot_that_has_passed():
    env = Environment()
    slot = env.reserve()
    env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError, match="already passed"):
        env.schedule_at(1.0, slot, lambda ev: None)
    with pytest.raises(SimulationError, match="already passed"):
        env.schedule_at(0.5, env.reserve(), lambda ev: None)


def test_has_passed_is_exact_at_equal_timestamps():
    env = Environment()
    seen = {}
    before = env.reserve()
    env.schedule_callback(
        1.0, lambda ev: seen.update(before=env.has_passed(1.0, before),
                                    after=env.has_passed(1.0, after)))
    after = env.reserve()
    assert not env.has_passed(1.0, before)  # t=0: nothing at t=1 has run
    env.run()
    assert seen == {"before": True, "after": False}
    assert env.has_passed(0.5, after)       # strictly earlier instant
    assert not env.has_passed(1.5, before)  # strictly later instant


def test_urgent_event_at_a_new_instant_means_no_normal_entry_has_run():
    env = Environment()
    slot = env.reserve()
    env.run(until=1.0)  # stops on an URGENT marker, ahead of t=1's timers
    assert env.now == 1.0
    assert not env.has_passed(1.0, slot)


def test_quiet_only_inside_dispatch_with_nothing_else_due_now():
    env = Environment()
    assert not env.quiet()  # between runs nothing is a handler
    seen = []
    env.schedule_callback(1.0, lambda ev: seen.append(env.quiet()))
    env.schedule_callback(1.0, lambda ev: seen.append(env.quiet()))
    env.schedule_callback(2.0, lambda ev: None)
    env.run()
    # First t=1 handler: its twin is still due.  Second: only t=2 left.
    assert seen == [False, True]
    assert not env.quiet()


def test_vitals_counts_executed_events_not_drawn_numbers():
    env = Environment()
    assert env.vitals() == {
        "events_executed": 0, "sequence_numbers_drawn": 0,
        "heap_depth": 0, "heap_high_water": 0,
        "tombstones": 0, "compactions": 0,
    }
    for i in range(5):
        env.timeout(1.0 + i)
    env.reserve()                 # drawn, never pushed
    env.cancel(env.timeout(9.0))  # pushed, never executed
    assert env.vitals() == env.vitals()  # reading draws nothing
    env.run(until=3.5)
    vitals = env.vitals()
    assert vitals["events_executed"] == 4  # three timers + the marker
    assert vitals["sequence_numbers_drawn"] == 8
    assert vitals["heap_depth"] == 2 and vitals["tombstones"] == 1
    assert vitals["heap_high_water"] == 7
    env.step()
    assert env.vitals()["events_executed"] == 5


# -- argument entries: call_later / schedule_at(fn, *args) ---------------------

def test_argument_entries_run_in_sequence_order_among_every_entry_kind():
    """One instant, five kinds of heap entry: URGENT first, then NORMAL
    entries in the order their sequence numbers were drawn — whether
    the entry is an event, a handle or a bare ``fn(*args)``."""
    from repro.sim.events import URGENT
    env = Environment()
    order = []
    env.call_later(1.0, order.append, "call-1")
    env.timeout(1.0).callbacks.append(lambda ev: order.append("timeout"))
    env.call_later(1.0, order.append, "call-2")
    env.schedule_callback(1.0, lambda handle: order.append("handle"))
    slot = env.reserve()
    env.call_later(1.0, order.append, "call-3")
    env.schedule_callback(1.0, lambda handle: order.append("urgent"), URGENT)
    env.schedule_at(1.0, slot, order.append, "reserved")
    env.run()
    assert order == ["urgent", "call-1", "timeout", "call-2", "handle",
                     "reserved", "call-3"]
    assert env.now == 1.0


def test_call_later_passes_its_arguments_and_draws_one_number_each():
    env = Environment()
    seen = []
    env.call_later(2.0, lambda *args: seen.append((env.now, args)))
    env.call_later(1.0, lambda *args: seen.append((env.now, args)), 1, "b")
    assert env.vitals()["sequence_numbers_drawn"] == 2
    env.run()
    assert seen == [(1.0, (1, "b")), (2.0, ())]
    assert env.vitals()["events_executed"] == 2


def test_has_passed_sees_argument_entries_like_any_normal_entry():
    env = Environment()
    seen = {}
    before = env.reserve()

    def probe(tag_before, tag_after):
        seen[tag_before] = env.has_passed(1.0, before)
        seen[tag_after] = env.has_passed(1.0, after)

    env.call_later(1.0, probe, "before", "after")
    after = env.reserve()
    env.run()
    assert seen == {"before": True, "after": False}
    # The slot after the probe is still open at t=1; the one before is not.
    late = []
    env.schedule_at(1.0, after, late.append, "ran")
    with pytest.raises(SimulationError, match="already passed"):
        env.schedule_at(1.0, before, late.append, "never")
    env.run()
    assert late == ["ran"]


def test_cancel_compaction_and_peek_over_a_mixed_heap():
    """Tombstones are event entries; argument entries beside them are
    never mistaken for one, by ``peek`` or by the compaction."""
    from repro.sim.core import COMPACT_THRESHOLD
    env = Environment()
    ran = []
    victims = [env.timeout(1.0) for _ in range(COMPACT_THRESHOLD + 2)]
    env.call_later(2.0, ran.append, "kept")
    keeper = env.timeout(3.0)
    assert env.cancel(victims[0])
    assert env.peek() == 1.0                 # pops that one tombstone
    for victim in victims[1:]:
        assert env.cancel(victim)            # the last one compacts
    vitals = env.vitals()
    assert vitals["compactions"] == 1 and vitals["tombstones"] == 0
    assert vitals["heap_depth"] == 2
    assert env.peek() == 2.0                 # an argument entry is live
    env.cancel(keeper)
    env.run()
    assert ran == ["kept"] and env.now == 2.0
    assert env.peek() == Infinity


def test_exception_from_an_argument_entry_leaves_the_kernel_consistent():
    env = Environment()
    ran = []

    def boom(tag):
        raise KeyError(tag)

    env.call_later(1.0, ran.append, "first")
    env.call_later(2.0, boom, "second")
    env.call_later(3.0, ran.append, "third")
    with pytest.raises(KeyError, match="second"):
        env.run()
    assert env.now == 2.0 and ran == ["first"]
    assert not env.quiet()                   # dispatch flag was reset
    vitals = env.vitals()
    assert vitals["events_executed"] == 2 and vitals["heap_depth"] == 1
    env.run()                                # and the run can go on
    assert ran == ["first", "third"]
    assert env.vitals()["events_executed"] == 3
    with pytest.raises(KeyError):            # same through step()
        env.call_later(1.0, boom, "again")
        env.step()
    assert not env.quiet() and env.vitals()["events_executed"] == 4


# -- URGENT slots: reserve_urgent / has_passed(time, seq, mark) -----------------
#
# Each case runs twice: once with the slot pushed at its draw as a real
# zero-delay URGENT entry (eager), once only reserved.  A probe asks
# "has the slot run?" — of the eager entry, whether it popped; of the
# reservation, ``has_passed`` — and the two runs must answer alike.

class _Slot:
    def __init__(self, env, eager):
        self.env, self.popped, self.slot = env, False, None
        if eager:
            env.schedule_callback(0.0, self._pop, URGENT)
        else:
            self.slot = env.reserve_urgent()

    def _pop(self, _handle):
        self.popped = True

    def ran(self):
        return self.popped if self.slot is None else \
            self.env.has_passed(*self.slot)


def _probes(case):
    """``case(env, eager, probe, draw) -> None`` both ways; the answers."""
    answers = []
    for eager in (True, False):
        env, seen, box = Environment(), [], {}

        def probe(label, env=env, seen=seen, box=box):
            return lambda _handle=None: seen.append(
                (label, box["slot"].ran() if "slot" in box else None))

        def draw(env=env, eager=eager, box=box):
            box["slot"] = _Slot(env, eager)

        case(env, probe, draw)
        answers.append(seen)
    assert answers[0] == answers[1]
    return answers[1]


def test_urgent_slot_drawn_in_an_urgent_handler():
    def case(env, probe, draw):
        def drawer(_handle):
            draw()
            probe("drawer")()
            env.schedule_callback(0.0, probe("urgent after"), URGENT)
        env.schedule_callback(1.0, drawer, URGENT)
        env.schedule_callback(1.0, probe("urgent before"), URGENT)
        env.schedule_callback(1.0, probe("normal"))
        env.run()
    assert _probes(case) == [("drawer", False), ("urgent before", False),
                             ("urgent after", True), ("normal", True)]


def test_urgent_slot_drawn_in_a_normal_handler_runs_right_after_it():
    """The probe was numbered before the slot, yet pops after it: an
    URGENT slot drawn at this instant passes with the next pop."""
    def case(env, probe, draw):
        def drawer(_handle):
            draw()
            probe("drawer")()
            env.schedule_callback(0.0, probe("urgent after"), URGENT)
        env.schedule_callback(1.0, drawer)
        env.schedule_callback(1.0, probe("normal, numbered before"))
        env.run()
    assert _probes(case) == [("drawer", False), ("urgent after", True),
                             ("normal, numbered before", True)]


def test_urgent_slot_passes_with_the_next_normal_pop_alone():
    """No URGENT entry pops after the slot: only the NORMAL entry that
    was last popped when it was drawn (its ``mark``) tells the pops
    apart — the probe's number is below the slot's."""
    def case(env, probe, draw):
        env.schedule_callback(1.0, lambda _handle: draw())
        env.schedule_callback(1.0, probe("normal, numbered before"))
        env.schedule_callback(2.0, probe("later"))
        env.run()
    assert _probes(case) == [("normal, numbered before", True),
                             ("later", True)]


def test_urgent_slot_drawn_before_the_run():
    def case(env, probe, draw):
        env.schedule_callback(0.0, probe("urgent before"), URGENT)
        env.schedule_callback(0.0, probe("normal before"))
        draw()
        probe("drawn")()
        env.schedule_callback(0.0, probe("urgent after"), URGENT)
        env.schedule_callback(1.0, probe("later"))
        env.run()
    assert _probes(case) == [
        ("drawn", False), ("urgent before", False), ("urgent after", True),
        ("normal before", True), ("later", True)]


def test_urgent_slot_drawn_between_runs():
    def case(env, probe, draw):
        env.schedule_callback(1.0, probe("normal at the stop"))
        env.run(until=1.0)      # stops on an URGENT marker at t=1
        env.schedule_callback(0.0, probe("urgent before"), URGENT)
        draw()
        probe("drawn")()
        env.schedule_callback(0.0, probe("urgent after"), URGENT)
        env.run()
    assert _probes(case) == [
        ("drawn", False), ("urgent before", False), ("urgent after", True),
        ("normal at the stop", True)]


def test_a_drain_passes_every_urgent_slot_drawn_before_it():
    def case(env, probe, draw):
        env.schedule_callback(1.0, lambda _handle: draw())
        env.run()               # drains at t=1
        probe("after the drain")()
        draw()
        probe("drawn between runs")()
        env.run()
        probe("after the second drain")()
    assert _probes(case) == [("after the drain", True),
                             ("drawn between runs", False),
                             ("after the second drain", True)]


def test_a_reserved_urgent_slot_still_due_keeps_the_instant_busy():
    """``quiet()`` answers as if the slot were on the heap."""
    seen = []
    for eager in (True, False):
        env = Environment()

        def handler(_handle, env=env, eager=eager):
            seen.append((eager, env.quiet()))
            slot = _Slot(env, eager)
            seen.append((eager, env.quiet(), slot.ran()))
        env.schedule_callback(1.0, handler)
        env.run()
    assert seen == [(True, True), (True, False, False),
                    (False, True), (False, False, False)]


def test_schedule_urgent_runs_where_the_eager_push_would():
    """Reserved in one handler, pushed from a later one of the same
    instant: it runs between the entries drawn around it."""
    env = Environment()
    order, slots = [], []

    def drawer(_handle):
        order.append("drawer")
        slots.append(env.reserve_urgent())
        env.schedule_callback(0.0, lambda _h: order.append("after it"),
                              URGENT)

    def pusher(_handle):
        order.append("pusher")
        env.schedule_urgent(slots[-1], lambda _h: order.append("slot"))
    env.schedule_callback(1.0, drawer, URGENT)
    env.schedule_callback(1.0, pusher, URGENT)
    env.schedule_callback(1.0, lambda _h: order.append("normal"))
    env.run()
    assert order == ["drawer", "pusher", "slot", "after it", "normal"]
    # A slot whose turn has come and gone cannot be pushed any more.
    with pytest.raises(SimulationError, match="already passed"):
        env.schedule_urgent(slots[0], lambda _h: None)
    env.schedule_callback(1.0, drawer, URGENT)
    env.run()
    with pytest.raises(SimulationError, match="already passed"):
        env.schedule_urgent(slots[1], lambda _h: None)
