"""Unit tests for virtual channels and credit-based flow control."""

import pytest

from repro.fabric.flow_control import CreditCounter, CreditError
from repro.fabric.header import RouteHeader
from repro.fabric.packet import Packet
from repro.fabric.vc import VCType, VirtualChannel
from repro.sim import Environment


def pkt(ts=0, oo=0, tc=0):
    return Packet(header=RouteHeader(pi=4, tc=tc, ts=ts, oo=oo))


class TestVirtualChannel:
    def test_fifo_within_ordered_queue(self):
        vc = VirtualChannel(0, VCType.BVC)
        a, b = pkt(), pkt()
        vc.push(a)
        vc.push(b)
        assert vc.pop() is a
        assert vc.pop() is b

    def test_bypassable_packet_overtakes_ordered(self):
        vc = VirtualChannel(0, VCType.BVC)
        data = pkt(ts=0)
        mgmt = pkt(ts=1)
        vc.push(data)
        vc.push(mgmt)
        assert vc.peek() is mgmt
        assert vc.pop() is mgmt
        assert vc.pop() is data

    def test_oo_bit_forbids_bypass(self):
        vc = VirtualChannel(0, VCType.BVC)
        first = pkt(ts=0)
        ordered_only = pkt(ts=1, oo=1)
        vc.push(first)
        vc.push(ordered_only)
        assert vc.pop() is first

    def test_ovc_has_no_bypass(self):
        vc = VirtualChannel(0, VCType.OVC)
        data = pkt(ts=0)
        mgmt = pkt(ts=1)
        vc.push(data)
        vc.push(mgmt)
        assert vc.pop() is data

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            VirtualChannel(0).pop()

    def test_len_and_iter(self):
        vc = VirtualChannel(0, VCType.BVC)
        a, b, c = pkt(ts=1), pkt(), pkt()
        for p in (b, a, c):
            vc.push(p)
        assert len(vc) == 3
        assert list(vc) == [a, b, c]  # bypass first


class TestCreditCounter:
    def test_instant_grant_when_available(self):
        env = Environment()
        counter = CreditCounter(env, capacity=8)
        grant = counter.consume(3)
        assert grant.triggered
        assert counter.available == 5
        assert counter.in_use == 3

    def test_blocks_until_release(self):
        env = Environment()
        counter = CreditCounter(env, capacity=4)
        counter.consume(4)
        waiting = counter.consume(2)
        assert not waiting.triggered
        counter.release(2)
        assert waiting.triggered
        assert counter.available == 0

    def test_fifo_no_starvation_of_large_packet(self):
        env = Environment()
        counter = CreditCounter(env, capacity=4)
        counter.consume(4)
        big = counter.consume(4)
        small = counter.consume(1)
        counter.release(2)
        # The big packet is first in line; the small one must wait even
        # though 2 credits would satisfy it.
        assert not big.triggered
        assert not small.triggered
        counter.release(2)
        assert big.triggered
        assert not small.triggered

    def test_take_reserves_without_an_event_or_refuses(self):
        env = Environment()
        counter = CreditCounter(env, capacity=4)
        assert counter.take(3) is None
        assert counter.available == 1
        with pytest.raises(CreditError, match="1 credits available"):
            counter.take(2)
        assert counter.available == 1
        # It never jumps a queued grant either.
        counter.consume(4)
        with pytest.raises(CreditError, match="1 grants queued"):
            counter.take(1)
        assert env.vitals()["sequence_numbers_drawn"] == 0

    def test_oversized_request_rejected(self):
        env = Environment()
        counter = CreditCounter(env, capacity=4)
        with pytest.raises(CreditError, match="credits"):
            counter.consume(5)

    def test_over_release_rejected(self):
        env = Environment()
        counter = CreditCounter(env, capacity=4)
        with pytest.raises(CreditError, match="over-release"):
            counter.release(1)

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            CreditCounter(env, capacity=0)
        counter = CreditCounter(env, capacity=4)
        with pytest.raises(ValueError):
            counter.consume(0)
        with pytest.raises(ValueError):
            counter.release(-1)


class TestPacketSizing:
    def test_size_includes_framing_header_payload_pcrc(self):
        p = Packet(header=RouteHeader(pi=4), payload=b"\x00" * 32)
        assert p.size_bytes(framing_overhead=8, pcrc_bytes=4) == 8 + 16 + 32 + 4

    def test_empty_payload_has_no_pcrc(self):
        p = Packet(header=RouteHeader(pi=4))
        assert p.size_bytes(framing_overhead=8, pcrc_bytes=4) == 8 + 16

    def test_credit_units_round_up(self):
        p = Packet(header=RouteHeader(pi=4), payload=b"\x00" * 100)
        # 8 + 16 + 100 + 4 = 128 bytes -> exactly 2 units of 64.
        assert p.credit_units(credit_unit=64) == 2
        p2 = Packet(header=RouteHeader(pi=4), payload=b"\x00" * 101)
        assert p2.credit_units(credit_unit=64) == 3

    def test_packet_ids_unique(self):
        a, b = pkt(), pkt()
        assert a.pkt_id != b.pkt_id
