"""Reference oracle: turn-pool routing as it stood in
``src/repro/routing/turnpool.py`` before ``build_turn_pool`` became one
pass — a width pass, then an ``encode_turn`` call per hop — unchanged
but for this paragraph and the absolute imports.
``tests/fabric/test_codec_differential.py`` holds ``src/`` to it.

Turn-pool source routing.

ASI unicast packets carry their entire route in the header: the *turn
pool* is a packed sequence of per-switch turn values, the *turn
pointer* tracks the traversal position, and the *direction* bit lets a
completion retrace the request's route without any path computation at
the responder (paper, section 2).

Semantics implemented here (matching the specification's relative-port
addressing; see :mod:`repro.fabric.header` for the single documented
widening of the pool):

* A switch with ``N`` ports consumes turns of width
  ``w = ceil(log2(N))`` bits.
* The pool is packed so the **first** hop's turn occupies the **top**
  bits; a forward packet starts with ``turn_pointer`` equal to the
  total number of turn bits and consumes downward.  A forward packet
  whose pointer is 0 has reached its destination device — this is how
  PI-4 packets terminate *at a switch*.
* Forward egress: ``out = (in + 1 + turn) mod N``.
* Backward (direction=1) packets consume upward from pointer 0 using
  ``out = (in - 1 - turn) mod N``; they terminate at endpoints (which
  never forward).  Together the two rules make routes exactly
  reversible: the same turn value maps ``in -> out`` forward and
  ``out -> in`` backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro._limits import TURN_POOL_BITS


class TurnPoolError(ValueError):
    """Raised when a route cannot be encoded or followed."""


@lru_cache(maxsize=None)
def turn_width(nports: int) -> int:
    """Bits needed for a turn value at a device with ``nports`` ports."""
    if nports < 2:
        raise TurnPoolError(f"cannot route through a {nports}-port device")
    return max(1, (nports - 1).bit_length())


def encode_turn(in_port: int, out_port: int, nports: int) -> int:
    """Turn value that routes ``in_port`` -> ``out_port`` (forward)."""
    _check_port(in_port, nports)
    _check_port(out_port, nports)
    if in_port == out_port:
        raise TurnPoolError("a packet cannot exit its ingress port")
    return (out_port - in_port - 1) % nports


def _check_port(port: int, nports: int) -> None:
    if not 0 <= port < nports:
        raise TurnPoolError(f"port {port} outside device with {nports} ports")


@dataclass(frozen=True, slots=True)
class Hop:
    """One switch traversal: enter ``in_port``, leave ``out_port``."""

    nports: int
    in_port: int
    out_port: int


@lru_cache(maxsize=None)
def intern_hop(nports: int, in_port: int, out_port: int) -> Hop:
    """A shared :class:`Hop` instance.

    Routes across a large fabric repeat the same few turns at every
    switch (a 128-port switch has at most ``128 * 127`` distinct hops),
    so route tables built from interned hops share their elements
    instead of holding millions of equal-but-distinct objects.
    """
    return Hop(nports, in_port, out_port)


class TurnPool:
    """A built source route: packed pool plus its total bit count."""

    __slots__ = ("pool", "bits")

    def __init__(self, pool: int, bits: int):
        if bits < 0 or bits > TURN_POOL_BITS:
            raise TurnPoolError(
                f"route needs {bits} turn bits; pool holds {TURN_POOL_BITS}"
            )
        if not 0 <= pool < (1 << TURN_POOL_BITS):
            raise TurnPoolError("pool value outside pool width")
        self.pool = pool
        self.bits = bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TurnPool)
            and self.pool == other.pool
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.pool, self.bits))


def build_turn_pool(hops: Sequence[Hop]) -> TurnPool:
    """Pack a hop sequence into a turn pool.

    The first hop's turn lands in the top bits so that a forward
    traversal (pointer counting down from ``bits``) consumes hops in
    path order.  An empty hop list is the self-route (pointer 0).

    Nothing is memoized here: the FM packs a device's route once per
    route assignment and keeps it on the record
    (:meth:`repro.manager.database.DeviceRecord.route`), so a
    process-wide table would only keep dead routes alive.
    """
    total_bits = sum(turn_width(h.nports) for h in hops)
    if total_bits > TURN_POOL_BITS:
        raise TurnPoolError(
            f"route of {len(hops)} hops needs {total_bits} turn bits; "
            f"pool holds {TURN_POOL_BITS}"
        )
    pool = 0
    remaining = total_bits
    for hop in hops:
        width = turn_width(hop.nports)
        turn = encode_turn(hop.in_port, hop.out_port, hop.nports)
        remaining -= width
        pool |= turn << remaining
    return TurnPool(pool, total_bits)


def route_step(direction: int, pool: int, pointer: int, in_port: int,
               nports: int) -> Tuple[int, int]:
    """One switch traversal: ``(egress_port, new_pointer)``.

    A forward packet (``direction == 0``) consumes the next turn
    downward from ``pointer`` and leaves by ``(in + 1 + turn) mod N``;
    a backward one consumes upward and leaves by ``(in - 1 - turn) mod
    N``.  Raises :class:`TurnPoolError` when ``in_port`` is not a port
    of the device, the forward pool is exhausted, or the backward
    pointer would move past the top of the pool.
    """
    if not 0 <= in_port < nports:
        raise TurnPoolError(
            f"port {in_port} outside device with {nports} ports")
    width = turn_width(nports)
    if direction == 0:
        if pointer < width:
            raise TurnPoolError(
                f"forward pointer {pointer} has fewer than {width} bits left"
            )
        pointer -= width
        turn = (pool >> pointer) & ((1 << width) - 1)
        return (in_port + 1 + turn) % nports, pointer
    if pointer + width > TURN_POOL_BITS:
        raise TurnPoolError(
            f"backward pointer {pointer} + width {width} exceeds pool"
        )
    turn = (pool >> pointer) & ((1 << width) - 1)
    return (in_port - 1 - turn) % nports, pointer + width


def walk_forward(pool: TurnPool,
                 hops: Sequence[Tuple[int, int]]) -> List[int]:
    """Follow a pool through ``hops`` of ``(nports, in_port)`` pairs.

    Debug/verification helper: returns the egress port chosen at each
    hop and checks the pool is exactly exhausted.
    """
    pointer = pool.bits
    egresses = []
    for nports, in_port in hops:
        egress, pointer = route_step(0, pool.pool, pointer, in_port, nports)
        egresses.append(egress)
    if pointer != 0:
        raise TurnPoolError(f"{pointer} turn bits left over after walk")
    return egresses
