"""The slotted PI-4 codec against the dataclass one it replaced.

``tests/reference/pi4.py`` is the codec as it stood before the
messages became hand-constructed ``__slots__`` values.  Everything
compared here is a pure function of its arguments: a constructor's
verdict, ``pack()``'s bytes, ``decode``'s message or error, ``==``,
``hash`` and ``repr`` — for all five message types, over generated
fields (in range and out), and over every kind of damage to a payload.
A decoder may only ever raise ``Pi4Error``.
"""

import dataclasses
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.protocols import pi4
from tests.reference import pi4 as reference

TYPES = ["ReadRequest", "ReadCompletion", "ReadError", "WriteRequest",
         "WriteCompletion"]
#: The keyword of each type's fifth field.
LAST = {"ReadRequest": "count", "ReadCompletion": "data",
        "ReadError": "status", "WriteRequest": "data",
        "WriteCompletion": "status"}


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the verdict is the point
        return type(exc).__name__, str(exc)


def same_error(new, old):
    """Both failed, with the same exception type (by name: the two
    modules define their own ``Pi4Error``) and the same text."""
    return (isinstance(new, tuple) and isinstance(old, tuple)
            and new == old)


def fields_of(message):
    if dataclasses.is_dataclass(message):
        return type(message).__name__, dataclasses.astuple(message)
    return type(message).__name__, message._values(message)


BYTE = st.integers(0, 0xFF)
DWORD = st.integers(0, 0xFFFFFFFF)
#: Mostly what the field holds, sometimes what it cannot.
loose = lambda inside: st.one_of(  # noqa: E731
    inside, inside, inside, st.integers(-2, 1 << 33))


@st.composite
def message_arguments(draw):
    """``(type name, keyword arguments)``, valid or not."""
    name = draw(st.sampled_from(TYPES))
    kwargs = dict(cap_id=draw(loose(BYTE)), offset=draw(loose(DWORD)),
                  tag=draw(loose(DWORD)))
    if draw(st.booleans()):
        kwargs["arrival_port"] = draw(loose(BYTE))
    last = LAST[name]
    if last == "count":
        value = draw(st.integers(-1, 10))
    elif last == "status":
        value = draw(loose(BYTE))
    else:
        value = tuple(draw(st.lists(loose(DWORD), max_size=10)))
    if draw(st.booleans()) or last == "data":
        kwargs[last] = value
    return name, kwargs


@st.composite
def valid_payloads(draw):
    name = draw(st.sampled_from(TYPES))
    last = LAST[name]
    if last == "count":
        value = draw(st.integers(1, 8))
    elif last == "status":
        value = draw(BYTE)
    else:
        value = tuple(draw(st.lists(DWORD, min_size=1, max_size=8)))
    message = getattr(reference, name)(
        cap_id=draw(BYTE), offset=draw(DWORD), tag=draw(DWORD),
        arrival_port=draw(BYTE), **{last: value})
    return message.pack()


class TestMessagesAgree:
    @settings(max_examples=400, deadline=None)
    @given(message_arguments())
    def test_construct_pack_decode_hash_repr(self, drawn):
        name, kwargs = drawn
        new = outcome(getattr(pi4, name), **kwargs)
        old = outcome(getattr(reference, name), **kwargs)
        if isinstance(old, tuple):
            assert same_error(new, old)
            return
        assert fields_of(new) == fields_of(old)
        assert repr(new) == repr(old)
        assert hash(new) == hash(old)
        packed, expected = outcome(new.pack), outcome(old.pack)
        if isinstance(expected, tuple):  # a field no byte or dword holds
            assert same_error(packed, expected)
            return
        assert packed == expected
        decoded, reference_decoded = (outcome(pi4.decode, packed),
                                      outcome(reference.decode, packed))
        if isinstance(reference_decoded, tuple):
            # Packs, but what it packs to is refused: an empty write.
            assert same_error(decoded, reference_decoded)
            return
        assert decoded == new and hash(decoded) == hash(new)
        assert fields_of(decoded) == fields_of(reference_decoded)
        # Positional construction is the decoder's; it must agree.
        assert getattr(pi4, name)(*new._values(new)) == new

    @given(message_arguments(), DWORD)
    def test_a_request_packed_under_a_tag(self, drawn, tag):
        """``pack(tag)`` is the bytes of the same message carrying
        ``tag`` — what the reference reached through ``with_tag``."""
        name, kwargs = drawn
        old = outcome(getattr(reference, name), **kwargs)
        if isinstance(old, tuple) or not reference.is_request(old):
            return
        new = getattr(pi4, name)(**kwargs)
        assert outcome(new.pack, tag) == outcome(old.with_tag(tag).pack)
        assert new.tag == kwargs["tag"]

    def test_the_two_classifications_are_one_attribute(self):
        for name in TYPES:
            kwargs = {"data": (1,)} if LAST[name] == "data" else {}
            new = getattr(pi4, name)(cap_id=0, offset=0, tag=0, **kwargs)
            old = getattr(reference, name)(cap_id=0, offset=0, tag=0,
                                           **kwargs)
            assert new.is_request is reference.is_request(old)
            assert new.is_request is not reference.is_completion(old)
            assert new.msg_type == old.msg_type


def assert_same_verdict(payload):
    new = outcome(pi4.decode, payload)
    old = outcome(reference.decode, payload)
    if isinstance(old, tuple):
        assert same_error(new, old), (payload, new, old)
        assert old[0] in ("Pi4Error", "Pi4DecodeError")
        with pytest.raises(pi4.Pi4Error):  # and never anything else
            pi4.decode(payload)
    else:
        assert fields_of(new) == fields_of(old), payload
        assert new.pack() == old.pack()


class TestDamagedPayloadsAgree:
    @settings(max_examples=300, deadline=None)
    @given(valid_payloads(), st.data())
    def test_truncated_extended_or_flipped(self, payload, data):
        assert_same_verdict(payload)
        cut = data.draw(st.integers(0, len(payload)))
        assert_same_verdict(payload[:cut])
        assert_same_verdict(payload + data.draw(st.binary(max_size=12)))
        bit = data.draw(st.integers(0, 8 * len(payload) - 1))
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert_same_verdict(bytes(flipped))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    @example(b"")
    @example(b"\x01garbage")
    @example(struct.pack(">BBBBIIBxxx", 2, 255, 0, 0, 0, 0, 0) + bytes(4 * 255))
    @example(struct.pack(">BBBBIIBxxx", 4, 9, 0, 0, 0, 0, 0) + bytes(36))
    @example(struct.pack(">BBBBIIBxxx", 1, 0, 0, 0, 0, 0, 0))
    def test_arbitrary_bytes(self, payload):
        assert_same_verdict(payload)

    def test_every_count_byte_of_a_completion(self):
        """The decoder holds one dword codec per count byte: each of
        the 256 decodes, at its exact length and one dword short."""
        for count in range(256):
            head = struct.pack(">BBBBIIBxxx", pi4.MSG_READ_COMPLETION,
                               count, 7, 0, 3, 99, 2)
            body = bytes(range(256)) * 4
            assert_same_verdict(head + body[:4 * count])
            if count:
                assert_same_verdict(head + body[:4 * count - 4])
