"""Unit tests for generator processes: the callback trampoline
``Environment.process`` that the kernel's benchmark probes drive."""

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


def test_process_requires_generator(env):
    with pytest.raises(ValueError):
        env.process(lambda: None)


def test_process_return_value(env):
    def proc(env):
        yield env.timeout(1)
        return 123

    assert env.run(until=env.process(proc(env))) == 123


def test_wait_for_another_process(env):
    def worker(env):
        yield env.timeout(3)
        return "result"

    def waiter(env):
        worker_p = env.process(worker(env))
        value = yield worker_p
        return (env.now, value)

    assert env.run(until=env.process(waiter(env))) == (3.0, "result")


def test_unhandled_process_exception_crashes_run(env):
    def bad(env):
        yield env.timeout(1)
        raise KeyError("unhandled")

    env.process(bad(env))
    env.timeout(5)
    with pytest.raises(KeyError):
        env.run()
    # At the instant the generator raised, not when a later event ran.
    assert env.now == 1.0


def test_yield_non_event_fails_process(env):
    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_many_concurrent_processes(env):
    results = []

    def proc(env, i):
        yield env.timeout(i % 7)
        results.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert sorted(results) == list(range(500))


def test_process_chain_same_timestep(env):
    """Processes can hand off repeatedly without advancing the clock."""

    def relay(env, depth):
        if depth == 0:
            return 0
        child = env.process(relay(env, depth - 1))
        value = yield child
        return value + 1

    assert env.run(until=env.process(relay(env, 50))) == 50
    assert env.now == 0.0


def test_yielding_a_processed_event_continues_at_once(env):
    ready = env.timeout(0, value="early")

    def late(env):
        yield env.timeout(1)
        got = yield ready  # processed a second ago
        return (env.now, got)

    assert env.run(until=env.process(late(env))) == (1.0, "early")


def test_kernel_counts_of_a_process_driven_run(env):
    """Each process takes one URGENT start slot and one exit slot (its
    done event), each timeout one slot: the counts the generator
    ``Process``/``Initialize``/``Timeout`` classes produced."""

    def ticker(env, delay, k):
        for _ in range(k):
            yield env.timeout(delay)
        return k

    def waiter(env):
        total = 0
        for i in range(3):
            total += yield env.process(ticker(env, 0.5 * (i + 1), 4))
        env.cancel(env.timeout(100))
        return total

    for i in range(3):
        env.process(ticker(env, 1.0 + i, 5))
    assert env.run(until=env.process(waiter(env))) == 12
    env.run()
    vitals = env.vitals()
    assert vitals["events_executed"] == 41
    assert vitals["sequence_numbers_drawn"] == 42
