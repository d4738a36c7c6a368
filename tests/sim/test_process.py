"""Unit tests for generator-based processes."""

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


def test_process_is_alive_lifecycle(env):
    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_wait_for_another_process(env):
    def worker(env):
        yield env.timeout(3)
        return "result"

    def waiter(env):
        worker_p = env.process(worker(env))
        value = yield worker_p
        return (env.now, value)

    assert env.run(until=env.process(waiter(env))) == (3.0, "result")


def test_exception_in_process_propagates_to_waiter(env):
    def bad(env):
        yield env.timeout(1)
        raise KeyError("oops")

    def waiter(env):
        with pytest.raises(KeyError):
            yield env.process(bad(env))
        return "caught"

    assert env.run(until=env.process(waiter(env))) == "caught"


def test_unhandled_process_exception_crashes_run(env):
    def bad(env):
        yield env.timeout(1)
        raise KeyError("unhandled")

    env.process(bad(env))
    with pytest.raises(KeyError):
        env.run()


def test_yield_non_event_fails_process(env):
    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert not p.is_alive


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
