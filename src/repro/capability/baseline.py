"""The baseline capability: device control and status information.

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

from .registers import DWORD_MASK, RegisterError, pack_u64, set_field

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

#: Port-status dword of a down port: x1 link width, speed code 1
#: (2.5 Gbps); an up port adds the state bits on top.
_PORT_DOWN = (PORT_STATE_DOWN << 30) | (1 << 24) | (1 << 16)
_PORT_UP = (PORT_STATE_UP << 30) | (1 << 24) | (1 << 16)


def port_block_offset(port_index: int) -> int:
    """Dword offset of the status block for ``port_index``."""
    if not 0 <= port_index < MAX_PORT_BLOCKS:
        raise RegisterError(f"port {port_index} outside baseline capability")
    return GENERAL_INFO_DWORDS + PORT_BLOCK_DWORDS * port_index


class BaselineCapability:
    """Computed view of a device's baseline capability.

    Reads are rendered on demand from the owning device's live state so
    that port up/down transitions are immediately visible to PI-4:
    nothing rendered outlives the read that asked for it.
    """

    cap_id = BASELINE_CAP_ID

    def __init__(self, device):
        self._device = device

    def __len__(self) -> int:
        return GENERAL_INFO_DWORDS + PORT_BLOCK_DWORDS * len(self._device.ports)

    def read(self, offset: int, count: int) -> List[int]:
        """Read ``count`` dwords starting at ``offset``."""
        device = self._device
        ports = device.ports
        nports = len(ports)
        size = GENERAL_INFO_DWORDS + PORT_BLOCK_DWORDS * nports
        if count < 1:
            raise RegisterError("count must be positive")
        end = offset + count
        if offset < 0 or end > size:
            raise RegisterError(
                f"access [{offset}, {end}) outside baseline "
                f"capability of {size} dwords"
            )
        if offset >= GENERAL_INFO_DWORDS:
            dwords = []
            rel = offset - GENERAL_INFO_DWORDS
        else:
            rel = 0
            type_code = device.type_code
            payload_code = device.max_payload_code
            dsn = device.dsn
            # A field is held to its width when its dword is read, in
            # dword order; the helpers name the first one that is not.
            if offset == 0 and not (0 <= type_code <= 0xFF
                                    and nports <= 0xFF
                                    and 0 <= payload_code <= 0xFF):
                for value in (type_code, nports, payload_code):
                    set_field(0, 0, 8, value)
            if offset <= 2 and end > 1 and not 0 <= dsn < 1 << 64:
                pack_u64(dsn)
            dwords = [
                (type_code << 24) | (nports << 16) | (payload_code << 8)
                | (1 if device.active else 0)
                | (2 if getattr(device, "fm_capable", False) else 0),
                (dsn >> 32) & DWORD_MASK,
                dsn & DWORD_MASK,
                (device.vendor_id << 16) | device.device_id,
                device.capability_version,
                0,
            ]
            if offset or end < GENERAL_INFO_DWORDS:
                dwords = dwords[offset:end]
        # Port blocks: status dword, then error counter, per port —
        # read from the port as it is now.
        stop = end - GENERAL_INFO_DWORDS
        while rel < stop:
            port = ports[rel >> 1]
            dwords.append(port.error_count & DWORD_MASK if rel & 1
                          else _PORT_UP if port.is_up else _PORT_DOWN)
            rel += 1
        return dwords

    def write(self, offset: int, values) -> None:
        raise RegisterError("baseline capability is read-only")


# -- decode helpers used by the fabric manager -------------------------------

def decode_general_info(dwords: List[int]) -> dict:
    """Decode the six general-information dwords into a dict."""
    if len(dwords) < GENERAL_INFO_DWORDS:
        raise ValueError(
            f"need {GENERAL_INFO_DWORDS} dwords, got {len(dwords)}"
        )
    d0, high, low, ids, version = dwords[:5]  # dword 5 is reserved
    return {
        "type_code": (d0 >> 24) & 0xFF,
        "nports": (d0 >> 16) & 0xFF,
        "max_payload_code": (d0 >> 8) & 0xFF,
        "active": bool(d0 & 1),
        "fm_capable": bool(d0 & 2),
        "dsn": ((high & DWORD_MASK) << 32) | (low & DWORD_MASK),
        "vendor_id": (ids >> 16) & 0xFFFF,
        "device_id": ids & 0xFFFF,
        "capability_version": version,
    }


def decode_port_status(dword: int) -> dict:
    """Decode a port-status dword into a dict."""
    state = (dword >> 30) & 0x3
    return {
        "state": state,
        "up": state == PORT_STATE_UP,
        "width": (dword >> 24) & 0x3F,
        "speed_code": (dword >> 16) & 0xFF,
    }
