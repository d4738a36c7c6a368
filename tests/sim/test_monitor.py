"""Unit tests for the one counter type."""

from repro.sim import Counter


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

    def test_a_key_that_never_counted_stays_absent(self):
        c = Counter()
        assert c["missing"] == 0
        assert "missing" not in c and c == {} and c.asdict() == {}
        # The trap this type sets: an empty bundle is falsy, so "does
        # it exist" is an ``is None`` test, never a truth test.
        assert not c and c is not None
        c.incr("x", 0)  # a counted zero is a count
        assert c == {"x": 0}

    def test_is_a_plain_mapping_without_per_instance_state(self):
        c = Counter(tx=2)
        c.incr("rx")
        assert dict(c) == {"tx": 2, "rx": 1} and list(c) == ["tx", "rx"]
        assert not hasattr(c, "__dict__")
