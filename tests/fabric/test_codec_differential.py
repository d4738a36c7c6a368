"""The one-pass header and turn-pool codecs against their references.

``RouteHeader.pack``/``unpack`` assemble each dword once and check the
CRC over the received words with the hcrc and reserved bits masked;
``build_turn_pool`` packs the route in one pass and reports a bad port
only after the route's width (``route_step`` is checked too, so a
later rewrite of the forwarding step has its oracle).  The forms they
replaced live on unchanged in ``tests/reference/header.py`` and
``tests/reference/turnpool.py``.  All of them are pure functions of
their arguments, so equality over generated inputs settles the
rewrite: the same bytes, fields or ports, or the same exception type
and message.
"""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fabric.header import HEADER_BYTES, RouteHeader
from repro.routing.turnpool import (
    Hop,
    build_turn_pool,
    route_step,
    walk_forward,
)
from tests.reference import header as ref_header
from tests.reference import turnpool as ref_turnpool

#: Field names in constructor order, with the largest legal value.
FIELDS = (("pi", 0xFF), ("tc", 0x7), ("direction", 0x1), ("oo", 0x1),
          ("ts", 0x1), ("credits_required", 0x1F), ("turn_pointer", 0x7F),
          ("turn_pool", (1 << 64) - 1), ("fecn", 0x1), ("perr", 0x1))
NAMES = tuple(name for name, _ in FIELDS)


def outcome(call, *args):
    """What a call did: its result, or the exception's type name and
    text (each side raises its own module's error class)."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the verdict is the point
        return type(exc).__name__, str(exc)


def fields_of(header):
    """A decoded header as its ten field values; anything else as is."""
    if isinstance(header, (RouteHeader, ref_header.RouteHeader)):
        return tuple(getattr(header, name) for name in NAMES)
    return header


def pool_of(pool):
    """A built pool as ``(pool, bits)``; an error outcome as is."""
    return pool if isinstance(pool, tuple) else (pool.pool, pool.bits)


def packed(cls, fields):
    return cls(**fields).pack()


def assert_same_unpack(data):
    for check_crc in (True, False):
        new = fields_of(outcome(RouteHeader.unpack, data, check_crc))
        old = fields_of(outcome(ref_header.RouteHeader.unpack, data,
                                check_crc))
        assert new == old, (data.hex(), check_crc)


def any_value(limit):
    """Legal values, the edges, and a little past each end."""
    return st.one_of(st.integers(0, limit), st.sampled_from(
        [-1, limit + 1, 2 * limit + 2]))


class TestHeaderAgrees:
    @pytest.mark.parametrize("name,limit", FIELDS[:7] + FIELDS[8:])
    def test_every_value_of_each_field(self, name, limit):
        base = dict(pi=4, tc=7, ts=1, turn_pointer=12, turn_pool=0xBEEF)
        for value in range(-1, limit + 2):
            fields = {**base, name: value}
            new = outcome(packed, RouteHeader, fields)
            assert new == outcome(packed, ref_header.RouteHeader, fields)
            if isinstance(new, bytes):
                assert_same_unpack(new)

    @settings(max_examples=300)
    @given(st.fixed_dictionaries(
        {name: any_value(limit) for name, limit in FIELDS}))
    def test_pack_and_unpack_over_generated_fields(self, fields):
        new = outcome(packed, RouteHeader, fields)
        assert new == outcome(packed, ref_header.RouteHeader, fields)
        if isinstance(new, bytes):
            assert len(new) == HEADER_BYTES
            assert_same_unpack(new)

    @settings(max_examples=300)
    @given(st.fixed_dictionaries(
        {name: any_value(limit) for name, limit in FIELDS}))
    def test_a_store_is_checked_by_the_next_pack(self, fields):
        """Fields stored after construction reach ``pack`` unchecked,
        and a memoised pack is re-made after a store."""
        new, old = RouteHeader(), ref_header.RouteHeader()
        assert new.pack() == old.pack()
        for name, value in fields.items():
            setattr(new, name, value)
            setattr(old, name, value)
        assert outcome(new.pack) == outcome(old.pack)

    @settings(max_examples=500)
    @given(st.binary(min_size=HEADER_BYTES, max_size=HEADER_BYTES))
    @example(bytes(HEADER_BYTES))
    def test_random_bytes(self, data):
        assert_same_unpack(data)

    @settings(max_examples=300)
    @given(st.integers(0, 0x7F), st.integers(0, 0xFF),
           st.integers(0, (1 << 64) - 1), st.binary(max_size=8))
    def test_every_turn_pointer_with_any_crc(self, pointer, hcrc, pool,
                                             tail):
        """Pointers past the pool width raise before the CRC is
        checked, and longer buffers decode their first 16 bytes."""
        data = struct.pack(">IIQ", (4 << 24) | (pointer << 11) | hcrc,
                           3 << 27, pool) + tail
        assert_same_unpack(data)

    @settings(max_examples=300)
    @given(st.fixed_dictionaries(
        {name: st.integers(0, limit) for name, limit in FIELDS
         if name != "turn_pointer"}),
        st.integers(0, 64), st.integers(1, 0x7), st.integers(0, 0x1FFFFFF))
    def test_reserved_bits_set_after_packing_go_unnoticed(
            self, fields, pointer, reserved0, reserved1):
        """The CRC covers the header with the reserved bits zero, so a
        reserved bit set in transit decodes to the header sent."""
        raw = RouteHeader(turn_pointer=pointer, **fields).pack()
        dword0, dword1, pool = struct.unpack(">IIQ", raw)
        data = struct.pack(">IIQ", dword0 | (reserved0 << 8),
                           dword1 | reserved1, pool)
        assert_same_unpack(data)
        assert fields_of(RouteHeader.unpack(data)) == fields_of(
            RouteHeader.unpack(raw))

    def test_short_buffers(self):
        for size in range(HEADER_BYTES):
            assert_same_unpack(bytes(size))


def hops_strategy():
    nports = st.one_of(st.integers(2, 16), st.integers(-1, 300),
                       st.sampled_from([0, 1, 2, 256, 257]))

    @st.composite
    def hop(draw):
        n = draw(nports)
        port = st.integers(-1, max(n, 1) + 1) if draw(st.booleans()) else (
            st.integers(0, max(n - 1, 0)))
        return Hop(n, draw(port), draw(port))

    return st.lists(hop(), max_size=20)


class TestTurnPoolAgrees:
    @settings(max_examples=1000)
    @given(hops_strategy())
    @example([Hop(16, 0, 1)] * 17 + [Hop(16, 3, 3)])
    @example([Hop(16, 3, 3), Hop(1, 0, 0)])
    @example([Hop(256, 0, 255)] * 9)
    def test_build_and_walk(self, hops):
        new = pool_of(outcome(build_turn_pool, hops))
        assert new == pool_of(outcome(ref_turnpool.build_turn_pool, hops))
        if isinstance(new[0], int):
            walk = [(h.nports, h.in_port) for h in hops]
            pool = build_turn_pool(hops)
            egresses = outcome(walk_forward, pool, walk)
            assert egresses == [h.out_port for h in hops]
            assert egresses == ref_turnpool.walk_forward(pool, walk)

    @settings(max_examples=1000)
    @given(st.integers(0, 1), st.integers(0, (1 << 64) - 1),
           st.integers(-1, 70), st.integers(-1, 300),
           st.one_of(st.integers(-1, 300),
                     st.sampled_from([0, 1, 2, 16, 256, 257])))
    def test_route_step(self, direction, pool, pointer, in_port, nports):
        assert outcome(route_step, direction, pool, pointer, in_port,
                       nports) == outcome(ref_turnpool.route_step,
                                          direction, pool, pointer,
                                          in_port, nports)
