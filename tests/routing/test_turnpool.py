"""Unit and property tests for turn-pool source routing."""

import pytest
from hypothesis import given, strategies as st

from repro.routing.turnpool import (
    Hop,
    TurnPool,
    TurnPoolError,
    build_turn_pool,
    encode_turn,
    route_step,
    turn_width,
    walk_forward,
)


class TestTurnWidth:
    @pytest.mark.parametrize(
        "nports,width",
        [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (16, 4), (256, 8)],
    )
    def test_widths(self, nports, width):
        assert turn_width(nports) == width

    def test_single_port_device_cannot_route(self):
        with pytest.raises(TurnPoolError):
            turn_width(1)


class TestTurnEncoding:
    def test_forward_inverse_of_encode(self):
        nports = 16
        for in_port in range(nports):
            for out_port in range(nports):
                if in_port == out_port:
                    continue
                turn = encode_turn(in_port, out_port, nports)
                # A one-turn pool: the step consumes all four bits.
                assert route_step(0, turn, 4, in_port, nports) == (
                    out_port, 0)

    def test_backward_undoes_forward(self):
        nports = 16
        for in_port in range(nports):
            for out_port in range(nports):
                if in_port == out_port:
                    continue
                turn = encode_turn(in_port, out_port, nports)
                # Backward packet enters at the forward egress and must
                # leave through the forward ingress.
                assert route_step(1, turn, 0, out_port, nports) == (
                    in_port, 4)

    def test_uturn_rejected(self):
        with pytest.raises(TurnPoolError):
            encode_turn(3, 3, 16)

    def test_port_bounds_checked(self):
        with pytest.raises(TurnPoolError):
            encode_turn(16, 0, 16)
        for direction in (0, 1):
            with pytest.raises(TurnPoolError, match="port -1 outside"):
                route_step(direction, 0, 4, -1, 16)
            with pytest.raises(TurnPoolError, match="port 16 outside"):
                route_step(direction, 0, 4, 16, 16)


class TestBuildAndWalk:
    def test_empty_route_is_self(self):
        pool = build_turn_pool([])
        assert pool.bits == 0
        assert pool.pool == 0

    def test_single_hop(self):
        pool = build_turn_pool([Hop(16, 2, 7)])
        assert pool.bits == 4
        assert route_step(0, pool.pool, pool.bits, 2, 16) == (7, 0)

    def test_walk_matches_construction(self):
        hops = [Hop(16, 0, 5), Hop(16, 3, 9), Hop(4, 1, 2)]
        pool = build_turn_pool(hops)
        egresses = walk_forward(pool, [(h.nports, h.in_port) for h in hops])
        assert egresses == [5, 9, 2]

    def test_route_too_long_rejected(self):
        hops = [Hop(256, 0, 1)] * 9  # 9 x 8 = 72 bits > 64
        with pytest.raises(TurnPoolError, match="turn bits"):
            build_turn_pool(hops)

    def test_forward_read_exhaustion_detected(self):
        pool = build_turn_pool([Hop(16, 0, 5)])
        _, pointer = route_step(0, pool.pool, pool.bits, 0, 16)
        with pytest.raises(TurnPoolError, match="fewer than 4 bits left"):
            route_step(0, pool.pool, pointer, 0, 16)

    def test_backward_read_overflow_detected(self):
        with pytest.raises(TurnPoolError, match="exceeds pool"):
            route_step(1, 0, 62, 0, 16)  # 62 + 4 > 64
        assert route_step(1, 0, 60, 0, 16) == (15, 64)  # the last turn

    def test_walk_reports_leftover_bits_and_a_short_pool(self):
        pool = build_turn_pool([Hop(16, 0, 5), Hop(16, 3, 9)])
        with pytest.raises(TurnPoolError, match="4 turn bits left over"):
            walk_forward(pool, [(16, 0)])
        with pytest.raises(TurnPoolError, match="fewer than 4 bits left"):
            walk_forward(pool, [(16, 0), (16, 3), (16, 1)])

    def test_one_port_device_cannot_be_stepped_through(self):
        with pytest.raises(TurnPoolError, match="1-port device"):
            route_step(0, 0, 4, 0, 1)

    def test_turnpool_equality_and_hash(self):
        a = build_turn_pool([Hop(16, 0, 5)])
        b = build_turn_pool([Hop(16, 0, 5)])
        c = build_turn_pool([Hop(16, 0, 6)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


# -- property: any route is exactly reversible ------------------------------

@st.composite
def random_path(draw):
    """A random multi-hop path through switches of varied radix."""
    nhops = draw(st.integers(1, 8))
    hops = []
    for _ in range(nhops):
        nports = draw(st.sampled_from([2, 3, 4, 8, 16]))
        in_port = draw(st.integers(0, nports - 1))
        out_port = draw(
            st.integers(0, nports - 1).filter(lambda p, i=in_port: p != i)
        )
        hops.append(Hop(nports, in_port, out_port))
    return hops


@given(random_path())
def test_property_forward_then_backward_returns_to_source(hops):
    total_bits = sum(turn_width(h.nports) for h in hops)
    if total_bits > 64:
        return  # longer than the pool; construction would reject it
    pool = build_turn_pool(hops)

    # Forward traversal.
    pointer = pool.bits
    for hop in hops:
        egress, pointer = route_step(0, pool.pool, pointer, hop.in_port,
                                     hop.nports)
        assert egress == hop.out_port
    assert pointer == 0

    # Backward traversal visits switches in reverse order, entering at
    # each hop's forward egress, and must exit at the forward ingress.
    for hop in reversed(hops):
        egress, pointer = route_step(1, pool.pool, pointer, hop.out_port,
                                     hop.nports)
        assert egress == hop.in_port
    assert pointer == pool.bits
