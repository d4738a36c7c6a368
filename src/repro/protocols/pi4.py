"""PI-4: the device configuration and control protocol.

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
from operator import attrgetter
from typing import Optional

from ..capability.config_space import MAX_READ_DWORDS

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
_HEAD_BYTES = _HEAD.size
#: The data dwords' codec for every value the head's count byte takes.
_WORDS = tuple(struct.Struct(f">{n}I") for n in range(256))


class Pi4Error(ValueError):
    """Raised when a PI-4 payload cannot be decoded."""


class Pi4DecodeError(Pi4Error):
    """A PI-4 payload is truncated or structurally garbage.

    Raised where the stdlib would raise a bare :class:`struct.error`,
    so receive paths can drop undecodable management packets (a real
    possibility once the link error model corrupts payload bytes) by
    catching :class:`Pi4Error` instead of crashing.
    """


#: ``arrival_port`` value for requests and local loopback completions.
NO_PORT = 0xFF


class Pi4Message:
    """Common fields of every PI-4 message.

    Messages are values: immutable, hashable, equal to a message of
    the same type with the same fields.  One is built for every packet
    decoded and every completion served, so they are slotted (no
    instance ``__dict__``) and their constructors are written by hand.
    """

    __slots__ = ("cap_id", "offset", "tag", "arrival_port")

    msg_type = 0x00  # overridden
    #: Whether the message expects a completion (else it is one).
    is_request = False

    def __init_subclass__(cls):
        #: Field names in constructor order, and one C-level read of
        #: all their values.
        cls._fields = Pi4Message.__slots__ + (
            cls.__slots__ or cls.__base__.__slots__)
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


# The slots' own setters: how the constructors get past __setattr__.
_cap_id, _offset, _tag, _arrival_port = (
    getattr(Pi4Message, name).__set__ for name in Pi4Message.__slots__)


class ReadRequest(Pi4Message):
    """Request ``count`` dwords from a capability."""

    __slots__ = ("count",)
    msg_type = MSG_READ_REQUEST
    is_request = True

    def __init__(self, cap_id: int, offset: int, tag: int,
                 arrival_port: int = NO_PORT, count: int = 1):
        if not 1 <= count <= MAX_READ_DWORDS:
            raise Pi4Error(
                f"read count {count} outside [1, {MAX_READ_DWORDS}]"
            )
        _cap_id(self, cap_id)
        _offset(self, offset)
        _tag(self, tag)
        _arrival_port(self, arrival_port)
        _count(self, count)

    def pack(self, tag: Optional[int] = None) -> bytes:
        """The payload; under ``tag`` instead of the message's own
        when given (the transaction engine numbers a request as it
        sends it, and does not copy the message to say so).  Every
        message packs this way."""
        return _HEAD.pack(MSG_READ_REQUEST, self.count, self.cap_id, 0,
                          self.offset, self.tag if tag is None else tag,
                          self.arrival_port)


class _DataMessage(Pi4Message):
    """A message that carries dwords."""

    __slots__ = ("data",)

    def __init__(self, cap_id: int, offset: int, tag: int,
                 arrival_port: int = NO_PORT, data: tuple = ()):
        _cap_id(self, cap_id)
        _offset(self, offset)
        _tag(self, tag)
        _arrival_port(self, arrival_port)
        _data(self, data)

    def pack(self, tag: Optional[int] = None) -> bytes:
        data = self.data
        return _HEAD.pack(self.msg_type, len(data), self.cap_id, 0,
                          self.offset, self.tag if tag is None else tag,
                          self.arrival_port) + _WORDS[len(data)].pack(*data)


class ReadCompletion(_DataMessage):
    """Successful read: carries the requested dwords."""

    __slots__ = ()
    msg_type = MSG_READ_COMPLETION


class WriteRequest(_DataMessage):
    """Write dwords into a capability."""

    __slots__ = ()
    msg_type = MSG_WRITE_REQUEST
    is_request = True

    def __init__(self, cap_id: int, offset: int, tag: int,
                 arrival_port: int = NO_PORT, data: tuple = ()):
        if not 1 <= len(data) <= MAX_READ_DWORDS:
            raise Pi4Error(
                f"write of {len(data)} dwords outside "
                f"[1, {MAX_READ_DWORDS}]"
            )
        _DataMessage.__init__(self, cap_id, offset, tag, arrival_port, data)


class _StatusMessage(Pi4Message):
    """A completion that carries only a status code."""

    __slots__ = ("status",)

    def __init__(self, cap_id: int, offset: int, tag: int,
                 arrival_port: int = NO_PORT, status: int = STATUS_OK):
        _cap_id(self, cap_id)
        _offset(self, offset)
        _tag(self, tag)
        _arrival_port(self, arrival_port)
        _status(self, status)

    def pack(self, tag: Optional[int] = None) -> bytes:
        return _HEAD.pack(self.msg_type, 0, self.cap_id, self.status,
                          self.offset, self.tag if tag is None else tag,
                          self.arrival_port)


class ReadError(_StatusMessage):
    """Failed read."""

    __slots__ = ()
    msg_type = MSG_READ_ERROR

    def __init__(self, cap_id: int, offset: int, tag: int,
                 arrival_port: int = NO_PORT,
                 status: int = STATUS_UNSUPPORTED):
        _StatusMessage.__init__(self, cap_id, offset, tag, arrival_port,
                                status)


class WriteCompletion(_StatusMessage):
    """Write acknowledgement (``status`` 0 on success)."""

    __slots__ = ()
    msg_type = MSG_WRITE_COMPLETION


_count = ReadRequest.count.__set__
_data = _DataMessage.data.__set__
_status = _StatusMessage.status.__set__


def decode(payload: bytes) -> Pi4Message:
    """Decode a PI-4 payload into its message object.

    Raises :class:`Pi4DecodeError` (a :class:`Pi4Error`) on truncated
    or structurally invalid payloads — never a bare ``struct.error``.
    """
    if len(payload) < _HEAD_BYTES:
        raise Pi4DecodeError(
            f"PI-4 payload of {len(payload)} bytes is too short"
        )
    (msg_type, count, cap_id, status, offset, tag,
     arrival_port) = _HEAD.unpack_from(payload)
    if msg_type == MSG_READ_REQUEST:
        return ReadRequest(cap_id, offset, tag, arrival_port, count)
    if msg_type == MSG_READ_COMPLETION or msg_type == MSG_WRITE_REQUEST:
        if len(payload) < _HEAD_BYTES + 4 * count:
            raise Pi4DecodeError(
                f"PI-4 payload truncated: {len(payload) - _HEAD_BYTES} "
                f"bytes for {count} dwords"
            )
        data = _WORDS[count].unpack_from(payload, _HEAD_BYTES)
        if msg_type == MSG_READ_COMPLETION:
            return ReadCompletion(cap_id, offset, tag, arrival_port, data)
        return WriteRequest(cap_id, offset, tag, arrival_port, data)
    if msg_type == MSG_READ_ERROR:
        return ReadError(cap_id, offset, tag, arrival_port, status)
    if msg_type == MSG_WRITE_COMPLETION:
        return WriteCompletion(cap_id, offset, tag, arrival_port, status)
    raise Pi4DecodeError(f"unknown PI-4 message type {msg_type:#04x}")
