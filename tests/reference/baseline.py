"""Reference oracle: the per-dword baseline capability as it stood in
``src/repro/capability/baseline.py`` before PR 21 — ``read`` ->
``_render`` -> ``set_field`` per dword, one ``get_field`` per decoded
field — unchanged but for this paragraph and the absolute imports.
``tests/capability/test_baseline_differential.py`` holds the one-pass
forms in ``src/`` to it.

The baseline capability: device control and status information.

Per the specification (as summarized in section 2 of the paper), the
baseline capability starts with six dwords of general device
information — type, serial number, number of supported ports, maximum
packet size — followed by up to 32 blocks describing each port (link
speed and width, current port state).

Layout used by this model::

    dword 0   : [type:8][nports:8][max_pkt_code:8][flags:8]
                flags bit0 = device active, bit1 = FM capable
    dword 1-2 : device serial number (DSN), high/low
    dword 3   : vendor id (16) | device id (16)
    dword 4   : capability version
    dword 5   : reserved, reads 0
    dword 6 + 2*p : port p status  [state:2][width:6][speed:8][rsvd:16]
    dword 7 + 2*p : port p error counter

The port-status dwords are *live*: reads always reflect the current
simulated port state, which is what makes PI-4 port reads meaningful to
the discovery algorithms.
"""

from __future__ import annotations

from typing import List

from repro.capability.registers import (
    RegisterError,
    get_field,
    pack_u64,
    set_field,
    unpack_u64,
)

#: Capability identifier of the baseline capability.
BASELINE_CAP_ID = 0x00

#: Device type codes stored in dword 0.
DEVICE_TYPE_ENDPOINT = 0x01
DEVICE_TYPE_SWITCH = 0x02

#: Port state codes.
PORT_STATE_DOWN = 0x0
PORT_STATE_UP = 0x1

#: Number of dwords of general information before the port blocks.
GENERAL_INFO_DWORDS = 6
#: Dwords per port block.
PORT_BLOCK_DWORDS = 2
#: Maximum ports a baseline capability can describe.  The ASI spec
#: caps this at 32 blocks; the model extends it to 128 so the
#: mega-scale generator families (Dragonfly groups, two-layer fat-tree
#: cores) can use high-radix switches.  PI-4 offsets are a full dword,
#: so the wire format is unaffected.
MAX_PORT_BLOCKS = 128


def port_block_offset(port_index: int) -> int:
    """Dword offset of the status block for ``port_index``."""
    if not 0 <= port_index < MAX_PORT_BLOCKS:
        raise RegisterError(f"port {port_index} outside baseline capability")
    return GENERAL_INFO_DWORDS + PORT_BLOCK_DWORDS * port_index


class BaselineCapability:
    """Computed view of a device's baseline capability.

    Reads are rendered on demand from the owning device's live state so
    that port up/down transitions are immediately visible to PI-4.
    """

    cap_id = BASELINE_CAP_ID

    def __init__(self, device):
        self._device = device

    def __len__(self) -> int:
        return GENERAL_INFO_DWORDS + PORT_BLOCK_DWORDS * len(self._device.ports)

    # -- rendering ------------------------------------------------------
    def _render(self, offset: int) -> int:
        device = self._device
        if offset == 0:
            flags = (1 if device.active else 0) | (
                2 if getattr(device, "fm_capable", False) else 0
            )
            dword = 0
            dword = set_field(dword, 24, 8, device.type_code)
            dword = set_field(dword, 16, 8, len(device.ports))
            dword = set_field(dword, 8, 8, device.max_payload_code)
            dword = set_field(dword, 0, 8, flags)
            return dword
        if offset in (1, 2):
            high, low = pack_u64(device.dsn)
            return high if offset == 1 else low
        if offset == 3:
            return (device.vendor_id << 16) | device.device_id
        if offset == 4:
            return device.capability_version
        if offset == 5:
            return 0
        # Port blocks.
        rel = offset - GENERAL_INFO_DWORDS
        port_index, word = divmod(rel, PORT_BLOCK_DWORDS)
        if port_index >= len(device.ports):
            raise RegisterError(
                f"baseline offset {offset} beyond {len(device.ports)} ports"
            )
        port = device.ports[port_index]
        if word == 0:
            dword = 0
            dword = set_field(
                dword, 30, 2, PORT_STATE_UP if port.is_up else PORT_STATE_DOWN
            )
            dword = set_field(dword, 24, 6, 1)  # x1 link width
            dword = set_field(dword, 16, 8, 1)  # speed code: 2.5 Gbps
            return dword
        return port.error_count & 0xFFFFFFFF

    def read(self, offset: int, count: int) -> List[int]:
        """Read ``count`` dwords starting at ``offset``."""
        if count < 1:
            raise RegisterError("count must be positive")
        if offset < 0 or offset + count > len(self):
            raise RegisterError(
                f"access [{offset}, {offset + count}) outside baseline "
                f"capability of {len(self)} dwords"
            )
        return [self._render(offset + i) for i in range(count)]

    def write(self, offset: int, values) -> None:
        raise RegisterError("baseline capability is read-only")


# -- decode helpers used by the fabric manager -------------------------------

def decode_general_info(dwords: List[int]) -> dict:
    """Decode the six general-information dwords into a dict."""
    if len(dwords) < GENERAL_INFO_DWORDS:
        raise ValueError(
            f"need {GENERAL_INFO_DWORDS} dwords, got {len(dwords)}"
        )
    d0 = dwords[0]
    return {
        "type_code": get_field(d0, 24, 8),
        "nports": get_field(d0, 16, 8),
        "max_payload_code": get_field(d0, 8, 8),
        "active": bool(get_field(d0, 0, 1)),
        "fm_capable": bool(get_field(d0, 1, 1)),
        "dsn": unpack_u64(dwords[1], dwords[2]),
        "vendor_id": get_field(dwords[3], 16, 16),
        "device_id": get_field(dwords[3], 0, 16),
        "capability_version": dwords[4],
    }


def decode_port_status(dword: int) -> dict:
    """Decode a port-status dword into a dict."""
    return {
        "state": get_field(dword, 30, 2),
        "up": get_field(dword, 30, 2) == PORT_STATE_UP,
        "width": get_field(dword, 24, 6),
        "speed_code": get_field(dword, 16, 8),
    }
