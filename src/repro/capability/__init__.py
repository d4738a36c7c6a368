"""Device configuration space and capability structures.

The fabric manager learns everything it knows about a device by
reading these structures through PI-4 (see :mod:`repro.protocols.pi4`).
"""

from .baseline import (
    BASELINE_CAP_ID,
    DEVICE_TYPE_ENDPOINT,
    DEVICE_TYPE_SWITCH,
    GENERAL_INFO_DWORDS,
    PORT_BLOCK_DWORDS,
    PORT_STATE_DOWN,
    PORT_STATE_UP,
    BaselineCapability,
    decode_general_info,
    decode_port_status,
    port_block_offset,
)
from .claim import CLAIM_CAP_ID, ClaimCapability
from .config_space import MAX_READ_DWORDS, ConfigSpace, ConfigSpaceError
from .event_route import EVENT_ROUTE_CAP_ID, EventRouteCapability
from .path_table import PATH_TABLE_CAP_ID, PathTableCapability
from .registers import (
    RegisterBlock,
    RegisterError,
    get_field,
    pack_u64,
    set_field,
    unpack_u64,
)

__all__ = [
    "BASELINE_CAP_ID",
    "CLAIM_CAP_ID",
    "ClaimCapability",
    "BaselineCapability",
    "ConfigSpace",
    "ConfigSpaceError",
    "DEVICE_TYPE_ENDPOINT",
    "DEVICE_TYPE_SWITCH",
    "EVENT_ROUTE_CAP_ID",
    "EventRouteCapability",
    "GENERAL_INFO_DWORDS",
    "MAX_READ_DWORDS",
    "PATH_TABLE_CAP_ID",
    "PORT_BLOCK_DWORDS",
    "PORT_STATE_DOWN",
    "PORT_STATE_UP",
    "PathTableCapability",
    "RegisterBlock",
    "RegisterError",
    "decode_general_info",
    "decode_port_status",
    "get_field",
    "pack_u64",
    "port_block_offset",
    "set_field",
    "unpack_u64",
]
