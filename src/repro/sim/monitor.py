"""Named event counts: the one counter type of the simulator."""

from __future__ import annotations

from typing import Dict


class Counter(dict):
    """A mapping of monotonically increasing integer counters.

    A key that never counted reads 0 and stays absent, so a bundle
    holds what happened and nothing else — and an *empty* bundle is
    falsy: test ``is None``, never truth, to ask whether one exists.
    """

    __slots__ = ()

    def __missing__(self, key: str) -> int:
        return 0

    def incr(self, key: str, amount: int = 1) -> None:
        self[key] = self[key] + amount

    def asdict(self) -> Dict[str, int]:
        return dict(self)
