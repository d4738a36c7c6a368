"""The claim capability: which fabric manager owns a device.

Serves ownership fencing: an FM that takes over (or comes back)
stamps every device it manages with a *claim* naming itself and its
epoch (``FabricManager._stamp_ownership``), so two FMs that both
believe they are primary find each other.  Two rules decide:

* the register's (:meth:`ClaimCapability.write`): the device accepts
  the first claim of a generation and rejects later ones with a PI-4
  completion status of ``STATUS_CONFLICT`` — the device's serial
  management-packet processing makes the test-and-set atomic for free;
* the managers' claim order (:func:`contest`): a newer generation
  wins, and within one generation the higher owner DSN.

Layout::

    dword 0 : [valid:1][rsvd:15][generation:16]
    dword 1 : owner DSN high
    dword 2 : owner DSN low
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .config_space import ConfigSpaceError
from .registers import RegisterBlock, RegisterError, get_field, set_field

#: Capability identifier of the claim capability.
CLAIM_CAP_ID = 0x07

#: PI-4 status returned when a claim loses the race.
STATUS_CONFLICT = 0x04

_SIZE = 3

#: What a manager does about the claims it read (see :func:`contest`).
STAMP, ADVANCE, YIELD = "stamp", "advance", "yield"


class ClaimCapability:
    """First-writer-wins claim register."""

    cap_id = CLAIM_CAP_ID

    def __init__(self):
        self._block = RegisterBlock(_SIZE)

    def __len__(self) -> int:
        return _SIZE

    @staticmethod
    def encode(owner_dsn: int, generation: int) -> List[int]:
        dword0 = set_field(set_field(0, 31, 1, 1), 0, 16, generation & 0xFFFF)
        return [
            dword0,
            (owner_dsn >> 32) & 0xFFFFFFFF,
            owner_dsn & 0xFFFFFFFF,
        ]

    def read(self, offset: int, count: int) -> List[int]:
        return self._block.read(offset, count)

    def write(self, offset: int, values: Sequence[int]) -> None:
        """Accept the claim only if unclaimed for this generation."""
        if offset != 0 or len(values) != _SIZE:
            raise RegisterError("claim writes must cover the whole capability")
        current = self.get_claim()
        incoming_generation = get_field(values[0], 0, 16)
        if current is not None and current[1] == incoming_generation:
            raise ConfigSpaceError(
                f"already claimed by {current[0]:#x} in generation "
                f"{incoming_generation}",
                status=STATUS_CONFLICT,
            )
        self._block.write(0, values)

    @staticmethod
    def decode(values: Sequence[int]) -> Optional[Tuple[int, int]]:
        """``(owner_dsn, generation)`` from the capability's dwords
        (:meth:`encode` backwards); None if unclaimed or cut short."""
        if len(values) < _SIZE or not get_field(values[0], 31, 1):
            return None
        return ((values[1] << 32) | values[2], get_field(values[0], 0, 16))

    def get_claim(self) -> Optional[Tuple[int, int]]:
        """Return ``(owner_dsn, generation)`` or None if unclaimed."""
        return self.decode(self._block.read(0, _SIZE))


def contest(claims: Iterable[Optional[Tuple[int, int]]], owner: int,
            generation: int) -> str:
    """The claim order, applied by the manager ``(owner, generation)``
    to the ``(owner_dsn, generation)`` claims it read (``None``:
    unclaimed or unreadable): a newer generation wins, and within one
    generation the higher owner DSN.

    ``YIELD`` when any claim outranks the manager: it was deposed.
    Else ``ADVANCE`` when a rival holds a claim of the manager's own
    generation: the manager wins, but the register takes one claim per
    generation, so it moves to the next and re-stamps.  Else ``STAMP``:
    every claim is older or its own, and its writes will be accepted.
    """
    verdict = STAMP
    for claim in claims:
        if claim is None:
            continue
        rival, rival_generation = claim
        if (rival_generation, rival) > (generation, owner):
            return YIELD
        if rival_generation == generation and rival != owner:
            verdict = ADVANCE
    return verdict
