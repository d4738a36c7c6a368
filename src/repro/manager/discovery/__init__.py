"""The three discovery implementations compared by the paper: one
exploration, paced by one row of :data:`~.base.PACING` each."""

from ..timing import ALGORITHMS
from .base import DiscoveryAlgorithm, DiscoveryStats, Target


def make_algorithm(key: str, fm) -> DiscoveryAlgorithm:
    """Instantiate the discovery algorithm named ``key`` for ``fm``."""
    if key not in ALGORITHMS:
        raise ValueError(
            f"unknown discovery algorithm {key!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        )
    return DiscoveryAlgorithm(fm, key)


__all__ = [
    "DiscoveryAlgorithm",
    "DiscoveryStats",
    "Target",
    "make_algorithm",
]
