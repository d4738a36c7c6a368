"""Management-entity processing-time model (paper Fig. 4, Figs. 8-9).

The paper measured, by profiling a software FM on a 3 GHz Pentium 4,
the time the FM spends processing one PI-4 packet under each discovery
implementation (Fig. 4):

* it is largest for Serial Packet, smaller for Serial Device, smallest
  for Parallel ("the implementation of the serial algorithms is more
  complex");
* it grows mildly with network size (bigger topology database);
* the *device*-side processing time is low, constant, and independent
  of both the algorithm and the network size.

These times are exogenous inputs to the simulation, scaled by the *FM
processing factor* and *device processing factor* studied in Figs. 8
and 9 — both are **speed** multipliers (factor 4 = four times faster,
factor 0.2 = five times slower).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Algorithm keys used throughout the manager package.
SERIAL_PACKET = "serial_packet"
SERIAL_DEVICE = "serial_device"
PARALLEL = "parallel"

ALGORITHMS = (SERIAL_PACKET, SERIAL_DEVICE, PARALLEL)

#: History label of a partial-assimilation burst, which has no timing
#: of its own: its packets cost the FM what Parallel's do.
PARTIAL = "partial"

#: Default per-packet FM processing times (seconds) calibrated to the
#: shape and magnitude of Fig. 4 (roughly 13-25 microseconds).
DEFAULT_FM_BASE: Dict[str, float] = {
    SERIAL_PACKET: 19.0e-6,
    SERIAL_DEVICE: 16.0e-6,
    PARALLEL: 13.0e-6,
}

#: Growth of FM processing time with the number of known devices
#: (seconds per device) — the topology database gets slower to search.
DEFAULT_FM_SLOPE = 25.0e-9

#: Device-side PI-4 processing time (seconds): low, constant.
DEFAULT_DEVICE_TIME = 2.5e-6


@dataclass
class ProcessingTimeModel:
    """Computes FM and device packet-processing times.

    Parameters
    ----------
    fm_base:
        Per-algorithm base FM time at an empty topology database.
    fm_slope:
        Additional FM time per device already in the database.
    device_time:
        Device-side time to serve one PI-4 request.
    fm_factor / device_factor:
        Speed multipliers (Figs. 8-9); must be positive.
    """

    fm_base: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FM_BASE)
    )
    fm_slope: float = DEFAULT_FM_SLOPE
    device_time: float = DEFAULT_DEVICE_TIME
    fm_factor: float = 1.0
    device_factor: float = 1.0

    def __post_init__(self):
        if self.fm_factor <= 0 or self.device_factor <= 0:
            raise ValueError("processing factors must be positive")
        missing = [a for a in ALGORITHMS if a not in self.fm_base]
        if missing:
            raise ValueError(f"fm_base missing algorithms: {missing}")
        if any(t <= 0 for t in self.fm_base.values()):
            raise ValueError("FM base times must be positive")
        if self.device_time <= 0:
            raise ValueError("device time must be positive")
        if self.fm_slope < 0:
            raise ValueError("fm_slope must be non-negative")

    def fm_time(self, algorithm: str, known_devices: int = 0) -> float:
        """FM time to process one packet under ``algorithm``."""
        try:
            base = self.fm_base[algorithm]
        except KeyError:
            raise ValueError(f"unknown algorithm {algorithm!r}") from None
        return (base + self.fm_slope * known_devices) / self.fm_factor

    def device_processing_time(self) -> float:
        """Device time to serve one PI-4 request."""
        return self.device_time / self.device_factor

    def to_dict(self) -> dict:
        """JSON/pickle-ready rendering (for spawn-safe job descriptions)."""
        return {
            "fm_base": dict(self.fm_base),
            "fm_slope": self.fm_slope,
            "device_time": self.device_time,
            "fm_factor": self.fm_factor,
            "device_factor": self.device_factor,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "ProcessingTimeModel":
        """Rebuild a model from :meth:`to_dict` output.

        Unknown and missing keys raise :class:`ValueError` — a
        misspelled factor silently reverting to the default would
        invalidate a whole sweep.
        """
        known = ("fm_base", "fm_slope", "device_time", "fm_factor",
                 "device_factor")
        unknown = sorted(set(document) - set(known))
        if unknown:
            raise ValueError(
                f"unknown ProcessingTimeModel fields: {', '.join(unknown)}"
            )
        missing = sorted(set(known) - set(document))
        if missing:
            raise ValueError(
                f"missing ProcessingTimeModel fields: {', '.join(missing)}"
            )
        return cls(
            fm_base=dict(document["fm_base"]),
            fm_slope=document["fm_slope"],
            device_time=document["device_time"],
            fm_factor=document["fm_factor"],
            device_factor=document["device_factor"],
        )
