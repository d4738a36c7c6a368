"""Unit tests for CRC generators and route-header serialization."""

import binascii
import random

import pytest
from hypothesis import given, strategies as st

from repro.fabric.crc import crc8, crc32
from repro.fabric.header import (
    HEADER_BYTES,
    TURN_POOL_BITS,
    HeaderError,
    RouteHeader,
)


class TestCRC:
    def test_crc8_known_vector(self):
        # CRC-8/ATM of "123456789" is 0xF4.
        assert crc8(b"123456789") == 0xF4

    def test_crc32_matches_zlib(self):
        for data in (b"", b"a", b"123456789", bytes(range(256))):
            assert crc32(data) == binascii.crc32(data)

    def test_crc32_known_vector(self):
        # The CRC-32/ISO-HDLC check value.
        assert crc32(b"123456789") == 0xCBF43926

    def test_crc32_equals_the_bitwise_definition(self):
        """``crc32`` delegates to zlib; the reference is the reflected
        polynomial division itself (what the deleted table encoded)."""
        def reference(data: bytes) -> int:
            crc = 0xFFFFFFFF
            for byte in data:
                crc ^= byte
                for _ in range(8):
                    crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
            return crc ^ 0xFFFFFFFF

        rng = random.Random(18)
        payloads = [b""] + [rng.randbytes(rng.randrange(301))
                            for _ in range(2000)]
        assert all(crc32(data) == reference(data) for data in payloads)

    def test_crc8_detects_single_bit_flip(self):
        data = bytearray(b"discovery packet")
        reference = crc8(bytes(data))
        data[3] ^= 0x10
        assert crc8(bytes(data)) != reference


class TestRouteHeader:
    def test_pack_unpack_roundtrip(self):
        header = RouteHeader(
            pi=4, tc=7, direction=0, oo=0, ts=1,
            credits_required=3, turn_pointer=12, turn_pool=0xABC,
        )
        raw = header.pack()
        assert len(raw) == HEADER_BYTES
        decoded = RouteHeader.unpack(raw)
        assert decoded == header.copy()  # CRC not stored on the object

    def test_crc_detects_corruption(self):
        raw = bytearray(RouteHeader(pi=4, tc=7).pack())
        raw[0] ^= 0x01
        with pytest.raises(HeaderError, match="CRC"):
            RouteHeader.unpack(bytes(raw))

    def test_unpack_short_buffer_rejected(self):
        with pytest.raises(HeaderError):
            RouteHeader.unpack(b"\x00" * (HEADER_BYTES - 1))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pi", 256),
            ("tc", 8),
            ("direction", 2),
            ("oo", -1),
            ("credits_required", 32),
            ("turn_pointer", 128),
        ],
    )
    def test_field_bounds_enforced(self, field, value):
        with pytest.raises(HeaderError):
            RouteHeader(**{field: value})

    def test_turn_pointer_beyond_pool_rejected(self):
        with pytest.raises(HeaderError):
            RouteHeader(turn_pointer=TURN_POOL_BITS + 1)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"pi": 256}, "pi=256 outside [0, 255]"),
            ({"tc": -1}, "tc=-1 outside [0, 7]"),
            ({"direction": 2}, "direction=2 outside [0, 1]"),
            ({"oo": 2}, "oo=2 outside [0, 1]"),
            ({"ts": 2}, "ts=2 outside [0, 1]"),
            ({"credits_required": 32},
             "credits_required=32 outside [0, 31]"),
            ({"turn_pointer": 128}, "turn_pointer=128 outside [0, 127]"),
            ({"fecn": 2}, "fecn=2 outside [0, 1]"),
            ({"perr": -3}, "perr=-3 outside [0, 1]"),
            ({"turn_pointer": TURN_POOL_BITS + 1},
             f"turn_pointer={TURN_POOL_BITS + 1} exceeds pool width"),
            ({"turn_pool": 1 << TURN_POOL_BITS},
             "turn_pool outside 64-bit range"),
            ({"turn_pool": -1}, "turn_pool outside 64-bit range"),
            # Several at once: the first in field order is named.
            ({"perr": 2, "tc": 9, "turn_pool": -1}, "tc=9 outside [0, 7]"),
        ],
    )
    def test_out_of_range_message_names_the_field(self, fields, message):
        with pytest.raises(HeaderError) as raised:
            RouteHeader(**fields)
        assert str(raised.value) == message
        # A store is not checked; the next pack() is, the same way.
        header = RouteHeader()
        for name, value in fields.items():
            setattr(header, name, value)
        with pytest.raises(HeaderError) as raised:
            header.pack()
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "field,value",
        [("pi", 5), ("tc", 2), ("direction", 1), ("oo", 1), ("ts", 0),
         ("credits_required", 9), ("turn_pointer", 8), ("turn_pool", 0xABD),
         ("fecn", 1), ("perr", 1)],
    )
    def test_a_store_to_any_field_after_pack_changes_the_bytes(
            self, field, value):
        fields = dict(pi=4, tc=7, direction=0, oo=0, ts=1,
                      credits_required=3, turn_pointer=12, turn_pool=0xABC)
        header = RouteHeader(**fields)
        before = header.pack()
        assert header.pack() is before  # memoised while unchanged
        setattr(header, field, value)
        after = header.pack()
        assert after != before
        assert after == RouteHeader(**{**fields, field: value}).pack()
        assert RouteHeader.unpack(after) == header  # CRC verifies
        setattr(header, field, fields.get(field, 0))
        assert header.pack() == before

    def test_plain_attribute_stores_need_no_hook(self):
        """The switches rewrite ``turn_pointer`` with a plain store at
        every hop; the memo must notice a store no ``__setattr__``
        could have seen."""
        assert "__setattr__" not in vars(RouteHeader)
        header = RouteHeader(pi=4, tc=7, ts=1, turn_pointer=12,
                             turn_pool=0xBEEF)
        before = header.pack()
        header.turn_pointer = 8
        hop = header.pack()
        RouteHeader.turn_pointer.__set__(header, 4)  # the slot itself
        assert len({before, hop, header.pack()}) == 3
        assert RouteHeader.unpack(header.pack()).turn_pointer == 4

    def test_copy_is_independent(self):
        header = RouteHeader(pi=4, tc=7, ts=1, turn_pointer=12,
                             turn_pool=0xBEEF, fecn=1)
        clone = header.copy()
        assert clone == header and clone is not header
        clone.turn_pointer = 8
        assert header.turn_pointer == 12
        assert header.pack() != clone.pack()

    def test_reversed_flips_direction(self):
        header = RouteHeader(pi=4, tc=5, turn_pointer=0, turn_pool=0x55)
        back = header.reversed()
        assert back.direction == 1
        assert back.turn_pointer == 0
        assert back.turn_pool == 0x55
        assert back.tc == 5  # response uses the request's traffic class

    def test_reversed_requires_forward(self):
        header = RouteHeader(direction=1)
        with pytest.raises(HeaderError):
            header.reversed()

    @given(
        pi=st.integers(0, 255),
        tc=st.integers(0, 7),
        direction=st.integers(0, 1),
        oo=st.integers(0, 1),
        ts=st.integers(0, 1),
        credits_required=st.integers(0, 31),
        turn_pointer=st.integers(0, TURN_POOL_BITS),
        turn_pool=st.integers(0, (1 << TURN_POOL_BITS) - 1),
    )
    def test_roundtrip_property(self, **fields):
        header = RouteHeader(**fields)
        assert RouteHeader.unpack(header.pack()) == header


class TestPacketWireFormat:
    def test_roundtrip_with_payload(self):
        from repro.fabric.packet import Packet

        packet = Packet(
            header=RouteHeader(pi=4, tc=7, ts=1, turn_pointer=12,
                               turn_pool=0xBEEF),
            payload=b"\x01\x02\x03\x04",
        )
        decoded = Packet.from_bytes(packet.to_bytes())
        assert decoded.header == packet.header
        assert decoded.payload == packet.payload

    def test_roundtrip_empty_payload(self):
        from repro.fabric.packet import Packet

        packet = Packet(header=RouteHeader(pi=5))
        raw = packet.to_bytes()
        assert len(raw) == HEADER_BYTES  # no PCRC without payload
        assert Packet.from_bytes(raw).payload == b""

    def test_payload_corruption_detected(self):
        from repro.fabric.packet import Packet, PacketError

        raw = bytearray(
            Packet(header=RouteHeader(pi=4), payload=b"payload").to_bytes()
        )
        raw[HEADER_BYTES + 2] ^= 0x40
        with pytest.raises(PacketError, match="PCRC"):
            Packet.from_bytes(bytes(raw))

    def test_header_corruption_detected(self):
        from repro.fabric.packet import Packet

        raw = bytearray(
            Packet(header=RouteHeader(pi=4), payload=b"x").to_bytes()
        )
        raw[1] ^= 0x01
        with pytest.raises(HeaderError, match="CRC"):
            Packet.from_bytes(bytes(raw))

    def test_truncated_pcrc_detected(self):
        from repro.fabric.packet import Packet, PacketError

        raw = Packet(header=RouteHeader(pi=4), payload=b"abc").to_bytes()
        # Leave fewer than 4 trailing bytes: the PCRC cannot be present.
        with pytest.raises(PacketError, match="truncated"):
            Packet.from_bytes(raw[:HEADER_BYTES + 3])
        # A shorter cut still fails, via the PCRC check instead.
        with pytest.raises(PacketError, match="PCRC"):
            Packet.from_bytes(raw[:-2])

    @given(payload=st.binary(max_size=256))
    def test_roundtrip_property(self, payload):
        from repro.fabric.packet import Packet

        packet = Packet(header=RouteHeader(pi=8, tc=3), payload=payload)
        decoded = Packet.from_bytes(packet.to_bytes())
        assert decoded.payload == payload
