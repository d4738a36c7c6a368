"""Source-route construction and path computation."""

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
    "TurnPool",
    "TurnPoolError",
    "build_turn_pool",
    "encode_turn",
    "route_step",
    "turn_width",
    "walk_forward",
]
