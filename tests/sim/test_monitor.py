"""Unit tests for instrumentation helpers."""

import math

import pytest

from repro.sim import Counter, Tally


class TestCounter:
    def test_incr_and_lookup(self):
        c = Counter()
        c.incr("pkts")
        c.incr("pkts", 2)
        assert c["pkts"] == 3
        assert c["missing"] == 0

    def test_asdict_is_copy(self):
        c = Counter()
        c.incr("x")
        d = c.asdict()
        d["x"] = 99
        assert c["x"] == 1


class TestTally:
    def test_streaming_stats_match_batch(self):
        data = [1.0, 2.0, 3.0, 4.0, 100.0]
        t = Tally()
        for x in data:
            t.observe(x)
        mean = sum(data) / len(data)
        var = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
        assert t.n == 5
        assert t.mean == pytest.approx(mean)
        assert t.variance == pytest.approx(var)
        assert t.stdev == pytest.approx(math.sqrt(var))
        assert t.min == 1.0
        assert t.max == 100.0

    def test_empty_tally_raises_on_mean(self):
        with pytest.raises(ValueError):
            _ = Tally().mean

    def test_single_observation_zero_variance(self):
        t = Tally()
        t.observe(7.0)
        assert t.variance == 0.0
        assert t.stdev == 0.0
