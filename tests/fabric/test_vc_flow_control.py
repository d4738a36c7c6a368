"""Unit tests for virtual channels and credit-based flow control."""

import pytest

from repro.fabric.header import RouteHeader
from repro.fabric.packet import Packet
from repro.fabric.vc import CreditError, VCType, VirtualChannel


def pkt(ts=0, oo=0, tc=0):
    return Packet(header=RouteHeader(pi=4, tc=tc, ts=ts, oo=oo))


def channel(vc_type=VCType.BVC, capacity=4):
    return VirtualChannel(0, vc_type, capacity)


class TestVirtualChannel:
    def test_fifo_within_ordered_queue(self):
        vc = channel()
        a, b = pkt(), pkt()
        vc.push(a)
        vc.push(b)
        assert list(vc.ordered) == [a, b]
        assert vc.bypass is None  # a queue exists once it is used

    def test_bypassable_packet_overtakes_ordered(self):
        vc = channel()
        data = pkt(ts=0)
        mgmt = pkt(ts=1)
        vc.push(data)
        vc.push(mgmt)
        # The arbiter's pick: the bypass queue's head, if it has one.
        assert (vc.bypass or vc.ordered)[0] is mgmt
        assert list(vc) == [mgmt, data]

    def test_oo_bit_forbids_bypass(self):
        vc = channel()
        first = pkt(ts=0)
        ordered_only = pkt(ts=1, oo=1)
        vc.push(first)
        vc.push(ordered_only)
        assert list(vc) == [first, ordered_only]
        assert vc.bypass is None

    def test_ovc_has_no_bypass(self):
        vc = channel(VCType.OVC)
        data = pkt(ts=0)
        mgmt = pkt(ts=1)
        vc.push(data)
        vc.push(mgmt)
        assert list(vc) == [data, mgmt]

    def test_len_and_iter(self):
        vc = channel()
        assert len(vc) == 0 and list(vc) == []  # no queue yet
        a, b, c = pkt(ts=1), pkt(), pkt()
        for p in (b, a, c):
            vc.push(p)
        assert len(vc) == 3
        assert list(vc) == [a, b, c]  # bypass first


class TestCreditCounter:
    """The credit mirror half of the record."""

    def test_instant_grant_when_available(self):
        vc = channel(capacity=8)
        vc.take(3)
        assert vc.available == 5
        assert vc.in_use == 3

    def test_take_reserves_without_an_event_or_refuses(self):
        vc = channel()
        assert vc.take(3) is None
        assert vc.available == 1
        with pytest.raises(CreditError, match="1 credits available"):
            vc.take(2)
        assert vc.available == 1
        vc.release(3)
        assert vc.available == 4

    def test_oversized_request_rejected(self):
        vc = channel()
        with pytest.raises(CreditError, match="credits"):
            vc.take(5)
        assert vc.available == 4

    def test_over_release_rejected(self):
        vc = channel()
        with pytest.raises(CreditError, match="over-release"):
            vc.release(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            channel(capacity=0)
        vc = channel()
        with pytest.raises(ValueError):
            vc.take(0)
        with pytest.raises(ValueError):
            vc.release(-1)


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
