"""Reference oracle: the dataclass PI-4 codec as it stood in
``src/repro/protocols/pi4.py`` before PR 21, unchanged but for this
paragraph and the absolute import.  ``tests/protocols/
test_pi4_differential.py`` holds the slotted codec in ``src/`` to it,
message by message and payload by payload.

PI-4: the device configuration and control protocol.

PI-4 is the workhorse of fabric management (paper, section 2): the FM
reads and writes device capability structures with it.  A read request
names a capability, a dword offset, and a count (at most eight dwords);
the device answers with a *completion with data* carrying the dwords,
or a *completion with error*.  The completion travels the request's
route backwards with the same traffic class.

Wire format of the PI-4 payload used by this model::

    dword 0 : [msg_type:8][count:8][cap_id:8][status:8]
    dword 1 : dword offset within the capability
    dword 2 : tag (matches completions to requests)
    dword 3 : [arrival_port:8][rsvd:24]
    dword 4+: data dwords (reads return them, writes carry them)

The ``arrival_port`` dword of a completion reports the responder's port
on which the request arrived (0xFF for a local loopback access).  The
FM needs it to extend source routes *through* a freshly discovered
switch; it plays the role InfiniBand's ``NodeInfo.LocalPortNum`` plays
during subnet discovery (the authors' own prior work, reference [2] of
the paper).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.capability.config_space import MAX_READ_DWORDS

# Message type codes.
MSG_READ_REQUEST = 0x01
MSG_READ_COMPLETION = 0x02
MSG_READ_ERROR = 0x03
MSG_WRITE_REQUEST = 0x04
MSG_WRITE_COMPLETION = 0x05

# Completion status codes.
STATUS_OK = 0x00
STATUS_BAD_CAPABILITY = 0x01
STATUS_BAD_RANGE = 0x02
STATUS_UNSUPPORTED = 0x03
STATUS_CONFLICT = 0x04

_HEAD = struct.Struct(">BBBBIIBxxx")


class Pi4Error(ValueError):
    """Raised when a PI-4 payload cannot be decoded."""


class Pi4DecodeError(Pi4Error):
    """A PI-4 payload is truncated or structurally garbage.

    Wraps the bare :class:`struct.error` the stdlib raises on malformed
    buffers, so receive paths can drop undecodable management packets
    (a real possibility once the link error model corrupts payload
    bytes) by catching :class:`Pi4Error` instead of crashing.
    """


#: ``arrival_port`` value for requests and local loopback completions.
NO_PORT = 0xFF


@dataclass(frozen=True)
class Pi4Message:
    """Common fields of every PI-4 message."""

    cap_id: int
    offset: int
    tag: int
    arrival_port: int = NO_PORT

    msg_type = 0x00  # overridden

    def with_tag(self, tag: int) -> "Pi4Message":
        """A copy of this message carrying ``tag``.

        The requester stamps every request once; the other fields were
        validated when the message was built, so this copies them
        as they are instead of going back through ``__init__``.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, tag=tag)
        return clone

    def _head(self, count: int, status: int) -> bytes:
        return _HEAD.pack(
            self.msg_type, count, self.cap_id, status, self.offset,
            self.tag, self.arrival_port,
        )


@dataclass(frozen=True)
class ReadRequest(Pi4Message):
    """Request ``count`` dwords from a capability."""

    count: int = 1
    msg_type = MSG_READ_REQUEST

    def __post_init__(self):
        if not 1 <= self.count <= MAX_READ_DWORDS:
            raise Pi4Error(
                f"read count {self.count} outside [1, {MAX_READ_DWORDS}]"
            )

    def pack(self) -> bytes:
        return self._head(self.count, 0)


@dataclass(frozen=True)
class ReadCompletion(Pi4Message):
    """Successful read: carries the requested dwords."""

    data: tuple = ()
    msg_type = MSG_READ_COMPLETION

    def pack(self) -> bytes:
        return self._head(len(self.data), STATUS_OK) + struct.pack(
            f">{len(self.data)}I", *self.data)


@dataclass(frozen=True)
class ReadError(Pi4Message):
    """Failed read: carries only a status code."""

    status: int = STATUS_UNSUPPORTED
    msg_type = MSG_READ_ERROR

    def pack(self) -> bytes:
        return self._head(0, self.status)


@dataclass(frozen=True)
class WriteRequest(Pi4Message):
    """Write dwords into a capability."""

    data: tuple = ()
    msg_type = MSG_WRITE_REQUEST

    def __post_init__(self):
        if not 1 <= len(self.data) <= MAX_READ_DWORDS:
            raise Pi4Error(
                f"write of {len(self.data)} dwords outside "
                f"[1, {MAX_READ_DWORDS}]"
            )

    def pack(self) -> bytes:
        return self._head(len(self.data), 0) + struct.pack(
            f">{len(self.data)}I", *self.data)


@dataclass(frozen=True)
class WriteCompletion(Pi4Message):
    """Write acknowledgement (``status`` 0 on success)."""

    status: int = STATUS_OK
    msg_type = MSG_WRITE_COMPLETION

    def pack(self) -> bytes:
        return self._head(0, self.status)


AnyPi4 = Union[ReadRequest, ReadCompletion, ReadError, WriteRequest,
               WriteCompletion]


def _data_words(payload: bytes, n: int) -> tuple:
    """The ``n`` data dwords following the head."""
    if len(payload) < _HEAD.size + 4 * n:
        raise Pi4DecodeError(
            f"PI-4 payload truncated: {len(payload) - _HEAD.size} bytes "
            f"for {n} dwords"
        )
    return struct.unpack_from(f">{n}I", payload, _HEAD.size)


def decode(payload: bytes) -> AnyPi4:
    """Decode a PI-4 payload into its message object.

    Raises :class:`Pi4DecodeError` (a :class:`Pi4Error`) on truncated
    or structurally invalid payloads — never a bare ``struct.error``.
    """
    if len(payload) < _HEAD.size:
        raise Pi4DecodeError(
            f"PI-4 payload of {len(payload)} bytes is too short"
        )
    try:
        (msg_type, count, cap_id, status, offset, tag,
         arrival_port) = _HEAD.unpack_from(payload)
    except struct.error as exc:  # pragma: no cover - length checked above
        raise Pi4DecodeError(f"PI-4 header unpack failed: {exc}") from exc
    common = (cap_id, offset, tag, arrival_port)
    if msg_type == MSG_READ_REQUEST:
        return ReadRequest(*common, count=count)
    if msg_type == MSG_READ_COMPLETION:
        return ReadCompletion(*common, data=_data_words(payload, count))
    if msg_type == MSG_READ_ERROR:
        return ReadError(*common, status=status)
    if msg_type == MSG_WRITE_REQUEST:
        return WriteRequest(*common, data=_data_words(payload, count))
    if msg_type == MSG_WRITE_COMPLETION:
        return WriteCompletion(*common, status=status)
    raise Pi4DecodeError(f"unknown PI-4 message type {msg_type:#04x}")


def is_request(message: AnyPi4) -> bool:
    """Whether a decoded message expects a completion."""
    return message.msg_type in (MSG_READ_REQUEST, MSG_WRITE_REQUEST)


def is_completion(message: AnyPi4) -> bool:
    """Whether a decoded message answers a request."""
    return message.msg_type in (
        MSG_READ_COMPLETION,
        MSG_READ_ERROR,
        MSG_WRITE_COMPLETION,
    )
