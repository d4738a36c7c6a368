"""Unit tests for events and timeouts."""

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


def _raising(env, message):
    """A process body that fails one simulated second in."""
    yield env.timeout(1.0)
    raise RuntimeError(message)


class TestEvent:
    def test_value_unavailable_until_triggered(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed("payload")
        assert ev.triggered
        assert ev.value == "payload"

    def test_double_succeed_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_unhandled_failure_crashes_run(self, env):
        env.process(_raising(env, "nobody catches me"))
        with pytest.raises(RuntimeError, match="nobody catches me"):
            env.run()


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_value_passed_through(self, env):
        def proc(env):
            got = yield env.timeout(1.0, value="tick")
            return got

        assert env.run(until=env.process(proc(env))) == "tick"

    def test_zero_delay_fires_now(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now

        assert env.run(until=env.process(proc(env))) == 0.0
