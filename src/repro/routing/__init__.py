"""Source-route construction, path computation, multicast tables."""

from .tables import MulticastForwardingTable, MulticastTableError

from .turnpool import (
    Hop,
    TurnPool,
    TurnPoolError,
    build_turn_pool,
    encode_turn,
    route_step,
    turn_width,
    walk_forward,
)

__all__ = [
    "Hop",
    "MulticastForwardingTable",
    "MulticastTableError",
    "TurnPool",
    "TurnPoolError",
    "build_turn_pool",
    "encode_turn",
    "route_step",
    "turn_width",
    "walk_forward",
]
