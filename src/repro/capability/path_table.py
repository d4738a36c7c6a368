"""The path-table capability of fabric endpoints.

After discovery, a fabric manager may compute source routes between
endpoints and distribute them (section 1 of the paper).  Each endpoint
exposes this capability in its configuration space for those routes;
this model does not distribute paths, so the table is only read and
written as raw dwords.

Layout (entries of 5 dwords each)::

    entry e, dword 0 : [valid:1][rsvd:24][turn_pointer:7]
    entry e, dword 1-2 : destination DSN (high/low)
    entry e, dword 3-4 : turn pool (high/low)
"""

from __future__ import annotations

from typing import List, Sequence

from .registers import RegisterBlock

#: Capability identifier of the path-table capability.
PATH_TABLE_CAP_ID = 0x06

ENTRY_DWORDS = 5


class PathTableCapability:
    """Writable table of (destination DSN -> source route) entries."""

    cap_id = PATH_TABLE_CAP_ID

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("need at least one path-table entry")
        self.max_entries = max_entries
        self._block = RegisterBlock(max_entries * ENTRY_DWORDS)

    def __len__(self) -> int:
        return len(self._block)

    def read(self, offset: int, count: int) -> List[int]:
        return self._block.read(offset, count)

    def write(self, offset: int, values: Sequence[int]) -> None:
        self._block.write(offset, values)
