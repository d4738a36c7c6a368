"""Property-based tests of the simulation kernel (hypothesis)."""

from hypothesis import given, strategies as st

from repro.sim import Environment


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=60))
def test_timeouts_fire_in_sorted_order(delays):
    """Regardless of creation order, events fire in time order."""
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(delay)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(delays)
    assert env.now == max(delays)


@given(st.integers(1, 200), st.integers(0, 10_000))
def test_many_processes_share_one_clock(n, seed):
    """N independent busy loops never observe time running backwards."""
    import random

    rng = random.Random(seed)
    env = Environment()
    observations = []

    def busy(env, steps):
        for _ in range(steps):
            before = env.now
            yield env.timeout(rng.uniform(0, 1))
            observations.append(env.now - before)

    for _ in range(min(n, 40)):
        env.process(busy(env, rng.randint(1, 5)))
    env.run()
    assert all(delta >= 0 for delta in observations)
