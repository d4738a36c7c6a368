"""A device's configuration space: the set of its capability structures.

PI-4 requests address configuration space as ``(capability id, dword
offset, dword count)``.  Reads of up to eight dwords return data in a
single completion; malformed accesses produce a completion-with-error,
which this module signals with :class:`ConfigSpaceError`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .registers import RegisterError

#: Maximum dwords a single PI-4 read may return (spec: eight 32-bit blocks).
MAX_READ_DWORDS = 8


class ConfigSpaceError(Exception):
    """A configuration-space access failed.

    ``status`` is a PI-4 completion status code hint (bad range by
    default, conflict for lose-the-race claim writes).
    """

    def __init__(self, message: str, status: int = 0x02):
        super().__init__(message)
        self.status = status


class ConfigSpace:
    """Maps capability ids to capability structures."""

    def __init__(self):
        self._caps: Dict[int, object] = {}

    def add(self, capability) -> None:
        """Register a capability structure (must expose ``cap_id``)."""
        cap_id = capability.cap_id
        if cap_id in self._caps:
            raise ValueError(f"capability {cap_id:#x} already present")
        self._caps[cap_id] = capability

    def capability(self, cap_id: int):
        """Return the capability object for ``cap_id``."""
        try:
            return self._caps[cap_id]
        except KeyError:
            raise ConfigSpaceError(
                f"device has no capability {cap_id:#x}"
            ) from None

    def capability_ids(self) -> List[int]:
        return sorted(self._caps)

    def read(self, cap_id: int, offset: int, count: int) -> List[int]:
        """Read ``count`` dwords from a capability.

        Raises
        ------
        ConfigSpaceError
            On unknown capability, oversized read, or bad range — the
            device turns this into a PI-4 completion-with-error.
        """
        if not 1 <= count <= MAX_READ_DWORDS:
            raise ConfigSpaceError(
                f"read of {count} dwords outside [1, {MAX_READ_DWORDS}]"
            )
        cap = self.capability(cap_id)
        try:
            return cap.read(offset, count)
        except RegisterError as exc:
            raise ConfigSpaceError(str(exc)) from exc

    def write(self, cap_id: int, offset: int, values: Sequence[int]) -> None:
        """Write dwords into a capability (same error contract as read)."""
        if not values:
            raise ConfigSpaceError("empty write")
        cap = self.capability(cap_id)
        try:
            cap.write(offset, values)
        except RegisterError as exc:
            raise ConfigSpaceError(str(exc)) from exc
