"""``Environment.run`` holds the cyclic collector's young trigger at
``GC_YOUNG_THRESHOLD`` while it dispatches, and gives the caller's
thresholds back: after a return, a raise, nested runs and two runs that
overlap in two threads.  A caller's higher trigger and a disabled
collector are left as they are.

An environment dropped with events still on its heap leaves nothing for
the collector: no heap entry leads back to the environment."""

import gc
import threading

import pytest

from repro.sim import Environment
from repro.sim.core import GC_YOUNG_THRESHOLD

#: The interpreter's default thresholds, which every test starts from.
DEFAULT = (700, 10, 10)
HELD = (GC_YOUNG_THRESHOLD, 10, 10)


@pytest.fixture(autouse=True)
def default_collector():
    saved, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(*DEFAULT)
    gc.enable()
    yield
    gc.set_threshold(*saved)
    (gc.enable if enabled else gc.disable)()


def run_one(fn, env=None):
    """Run ``fn()`` as the one event of a fresh run; returns its value
    (``None`` when it raised)."""
    env = env or Environment()
    seen = []
    env.call_later(1.0, lambda: seen.append(fn()))
    env.run()
    return seen[0] if seen else None


def test_held_while_dispatching_and_restored_on_return():
    assert run_one(gc.get_threshold) == HELD
    assert gc.get_threshold() == DEFAULT


def test_restored_when_a_callback_raises():
    def boom():
        assert gc.get_threshold() == HELD
        raise RuntimeError("model bug")

    with pytest.raises(RuntimeError, match="model bug"):
        run_one(boom)
    assert gc.get_threshold() == DEFAULT


def test_only_the_outermost_of_nested_runs_restores():
    def outer():
        inner = run_one(gc.get_threshold)
        return inner, gc.get_threshold()

    assert run_one(outer) == (HELD, HELD)
    assert gc.get_threshold() == DEFAULT


def test_two_overlapping_runs_in_two_threads():
    """The first to start ends first, while the other still runs: the
    trigger stays held until the second ends, then is the caller's."""
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        first_in.set()
        assert second_in.wait(10)
        return gc.get_threshold()

    def second():
        second_in.set()
        assert first_out.wait(10)
        return gc.get_threshold()  # the first has restored nothing

    def in_thread(name, fn, wait=None):
        if wait is not None:
            assert wait.wait(10)
        seen[name] = run_one(fn)

    threads = [
        threading.Thread(target=in_thread, args=("first", first)),
        threading.Thread(target=in_thread,
                         args=("second", second, first_in)),
    ]
    for thread in threads:
        thread.start()
    threads[0].join(10)
    assert not threads[0].is_alive()
    first_out.set()
    threads[1].join(10)
    assert not threads[1].is_alive()
    assert seen == {"first": HELD, "second": HELD}
    assert gc.get_threshold() == DEFAULT


def test_a_higher_trigger_of_the_caller_is_kept():
    higher = (GC_YOUNG_THRESHOLD * 5, 20, 30)
    gc.set_threshold(*higher)
    assert run_one(gc.get_threshold) == higher
    assert gc.get_threshold() == higher


def test_the_caller_s_older_generations_are_kept():
    gc.set_threshold(700, 3, 4)
    assert run_one(gc.get_threshold) == (GC_YOUNG_THRESHOLD, 3, 4)
    assert gc.get_threshold() == (700, 3, 4)


def test_a_disabled_collector_is_left_alone():
    gc.disable()
    assert run_one(lambda: (gc.isenabled(), gc.get_threshold())) == (
        False, DEFAULT)
    assert not gc.isenabled()
    assert gc.get_threshold() == DEFAULT


def test_step_leaves_the_collector_as_it_is():
    env = Environment()
    seen = []
    env.call_later(1.0, lambda: seen.append(gc.get_threshold()))
    env.step()
    assert seen == [DEFAULT]


def garbage_after(build):
    """What the collector finds after ``build()`` made an environment,
    with the collector off, and dropped it."""
    gc.collect()
    gc.disable()
    build()
    return gc.collect()


def test_a_dropped_environment_with_pending_timeouts_is_not_garbage():
    def build():
        env = Environment()
        for _ in range(100):
            env.timeout(10.0)
        env.run(until=1.0)

    assert garbage_after(build) == 0


def test_a_dropped_environment_with_a_succeeded_event_is_not_garbage():
    def build():
        env = Environment()
        env.event().succeed("unprocessed")

    assert garbage_after(build) == 0


def test_a_run_a_callback_ended_early_leaves_no_garbage():
    """The ``until`` event of ``run(until=<time>)`` is still on the heap
    when a callback's exception ends the run."""
    def boom():
        raise RuntimeError("model bug")

    def build():
        env = Environment()
        env.call_later(0.5, boom)
        try:
            env.run(until=1.0)
        except RuntimeError:
            pass

    assert garbage_after(build) == 0


def test_a_pending_call_later_is_not_garbage():
    """Control: an argument entry never held its environment."""
    def build():
        env = Environment()
        env.call_later(10.0, print, "never")

    assert garbage_after(build) == 0
