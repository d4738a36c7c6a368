"""Unit tests for PI-4 / PI-5 message encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.protocols import pi4, pi5


class TestPi4Encoding:
    def test_read_request_roundtrip(self):
        msg = pi4.ReadRequest(cap_id=0, offset=6, tag=42, count=2)
        decoded = pi4.decode(msg.pack())
        assert decoded == msg

    def test_read_completion_roundtrip(self):
        msg = pi4.ReadCompletion(
            cap_id=0, offset=0, tag=7, data=(1, 2, 0xFFFFFFFF)
        )
        decoded = pi4.decode(msg.pack())
        assert decoded == msg
        assert decoded.data == (1, 2, 0xFFFFFFFF)

    def test_read_error_roundtrip(self):
        msg = pi4.ReadError(cap_id=5, offset=9, tag=1,
                            status=pi4.STATUS_BAD_RANGE)
        assert pi4.decode(msg.pack()) == msg

    def test_write_roundtrip(self):
        msg = pi4.WriteRequest(cap_id=5, offset=0, tag=3, data=(0xAB, 0xCD))
        assert pi4.decode(msg.pack()) == msg
        done = pi4.WriteCompletion(cap_id=5, offset=0, tag=3)
        assert pi4.decode(done.pack()) == done

    def test_packing_under_a_tag_changes_the_tag_only(self):
        """How the transaction engine numbers a request: the payload
        carries the engine's tag, every other field is the message's,
        and the message itself is untouched."""
        for msg in (
            pi4.ReadRequest(cap_id=2, offset=6, tag=0, count=8),
            pi4.WriteRequest(cap_id=5, offset=1, tag=0, data=(7, 9)),
        ):
            fields = dict(zip(msg._fields, msg._values(msg)))
            stamped = type(msg)(**{**fields, "tag": 0xBEEF})
            assert msg.pack(0xBEEF) == stamped.pack()
            assert pi4.decode(msg.pack(0xBEEF)) == stamped
            assert msg.tag == 0 and msg.pack() == msg.pack(0)

    def test_messages_are_immutable_slotted_values(self):
        msg = pi4.ReadRequest(cap_id=2, offset=6, tag=1, count=8)
        with pytest.raises(AttributeError, match="cannot assign"):
            msg.tag = 2
        with pytest.raises(AttributeError):
            del msg.tag
        with pytest.raises(AttributeError):
            msg.extra = 1
        assert not hasattr(msg, "__dict__")
        same = pi4.ReadRequest(2, 6, 1, pi4.NO_PORT, 8)
        assert msg == same and hash(msg) == hash(same)
        assert {msg: "found"}[same] == "found"
        # Same fields, another type: a different message.
        error = pi4.ReadError(cap_id=0, offset=0, tag=0, status=0)
        done = pi4.WriteCompletion(cap_id=0, offset=0, tag=0, status=0)
        assert error != done
        assert repr(msg) == ("ReadRequest(cap_id=2, offset=6, tag=1, "
                             "arrival_port=255, count=8)")

    def test_count_bounds(self):
        with pytest.raises(pi4.Pi4Error):
            pi4.ReadRequest(cap_id=0, offset=0, tag=0, count=0)
        with pytest.raises(pi4.Pi4Error):
            pi4.ReadRequest(cap_id=0, offset=0, tag=0, count=9)
        with pytest.raises(pi4.Pi4Error):
            pi4.WriteRequest(cap_id=0, offset=0, tag=0, data=())

    def test_decode_rejects_short_payload(self):
        with pytest.raises(pi4.Pi4Error):
            pi4.decode(b"\x01\x01")

    def test_decode_rejects_truncated_data(self):
        msg = pi4.ReadCompletion(cap_id=0, offset=0, tag=0, data=(1, 2))
        with pytest.raises(pi4.Pi4Error, match="truncated"):
            pi4.decode(msg.pack()[:-4])

    def test_decode_rejects_unknown_type(self):
        raw = bytearray(pi4.ReadRequest(cap_id=0, offset=0, tag=0).pack())
        raw[0] = 0x7F
        with pytest.raises(pi4.Pi4Error, match="unknown"):
            pi4.decode(bytes(raw))

    def test_request_completion_classification(self):
        req = pi4.ReadRequest(cap_id=0, offset=0, tag=0)
        comp = pi4.ReadCompletion(cap_id=0, offset=0, tag=0)
        err = pi4.ReadError(cap_id=0, offset=0, tag=0)
        wreq = pi4.WriteRequest(cap_id=0, offset=0, tag=0, data=(1,))
        wcomp = pi4.WriteCompletion(cap_id=0, offset=0, tag=0)
        assert [m.is_request for m in (req, comp, err, wreq, wcomp)] == [
            True, False, False, True, False,
        ]

    @given(
        cap_id=st.integers(0, 255),
        offset=st.integers(0, 0xFFFFFFFF),
        tag=st.integers(0, 0xFFFFFFFF),
        data=st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=8),
    )
    def test_completion_roundtrip_property(self, cap_id, offset, tag, data):
        msg = pi4.ReadCompletion(
            cap_id=cap_id, offset=offset, tag=tag, data=tuple(data)
        )
        assert pi4.decode(msg.pack()) == msg


class TestPi5Encoding:
    def test_roundtrip(self):
        event = pi5.PortEvent(
            reporter_dsn=0x1234_5678_9ABC, port=7, up=False, seq=99
        )
        decoded = pi5.decode(event.pack())
        assert decoded == event

    def test_up_event(self):
        event = pi5.PortEvent(reporter_dsn=1, port=0, up=True, seq=1)
        assert pi5.decode(event.pack()).up is True

    def test_short_payload_rejected(self):
        with pytest.raises(pi5.Pi5Error):
            pi5.decode(b"\x01\x02")

    def test_unknown_event_code_rejected(self):
        raw = bytearray(
            pi5.PortEvent(reporter_dsn=1, port=0, up=True, seq=1).pack()
        )
        raw[0] = 0x7E
        with pytest.raises(pi5.Pi5Error, match="unknown"):
            pi5.decode(bytes(raw))

    @given(
        dsn=st.integers(0, (1 << 64) - 1),
        port=st.integers(0, 255),
        up=st.booleans(),
        seq=st.integers(0, 0xFFFFFFFF),
    )
    def test_roundtrip_property(self, dsn, port, up, seq):
        event = pi5.PortEvent(reporter_dsn=dsn, port=port, up=up, seq=seq)
        assert pi5.decode(event.pack()) == event
