"""CRC generators used by the modeled ASI packet formats.

ASI protects the routing header with a header CRC and the payload with
an end-to-end PCRC (inherited from PCI Express).  We model them with a
table-driven CRC-8 (poly 0x07, as in ATM HEC; the standard library has
none) for the header and the standard reflected CRC-32 (poly
0x04C11DB7) for payloads, which is exactly :func:`zlib.crc32`.
"""

from __future__ import annotations

import zlib
from typing import List

_CRC8_POLY = 0x07


def _build_crc8_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ _CRC8_POLY) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
        table.append(crc)
    return table


_CRC8_TABLE = _build_crc8_table()


def crc8(data: bytes, initial: int = 0x00) -> int:
    """CRC-8/ATM over ``data``; returns an 8-bit value."""
    crc = initial & 0xFF
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


def crc32(data: bytes) -> int:
    """Reflected CRC-32 (IEEE 802.3) over ``data``; 32-bit value."""
    return zlib.crc32(data)
