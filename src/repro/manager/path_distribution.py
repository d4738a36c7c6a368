"""Path distribution to fabric endpoints.

"The information gathered by [discovery] is used to build a set of
paths between fabric endpoints" (abstract); dynamically distributing
new paths after a topological change is the paper's last future-work
item (section 5).  The distributor computes, from the FM's database,
every endpoint's shortest route to every other endpoint and writes the
entries into the endpoints' path-table capabilities with PI-4 writes
(one write per entry — an entry is five dwords, under the eight-dword
PI-4 limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..capability import PATH_TABLE_CAP_ID, PathTableCapability
from ..protocols import pi4
from ..routing.paths import PathError, db_endpoint_routes
from ..sim.events import Event
from .fm import FabricManager


@dataclass
class DistributionStats:
    """Cost of one path-distribution round."""

    endpoints: int = 0
    entries_written: int = 0
    writes_sent: int = 0
    write_failures: int = 0
    unroutable_pairs: int = 0
    bytes_sent: int = 0
    started_at: float = 0.0
    finished_at: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.finished_at is None:
            raise ValueError("distribution has not finished")
        return self.finished_at - self.started_at

    def asdict(self) -> dict:
        return {
            "endpoints": self.endpoints,
            "entries_written": self.entries_written,
            "writes_sent": self.writes_sent,
            "write_failures": self.write_failures,
            "unroutable_pairs": self.unroutable_pairs,
            "bytes_sent": self.bytes_sent,
            "duration": self.duration,
        }


class PathDistributor:
    """Distributes endpoint-to-endpoint routes after a discovery."""

    def __init__(self, fm: FabricManager):
        self.fm = fm
        self.env = fm.env

    def distribute(self) -> Event:
        """Start distribution; the event triggers with the stats."""
        stats = DistributionStats(started_at=self.env.now)
        done = self.env.event()

        def on_write(completion, _ctx) -> None:
            if isinstance(completion, pi4.WriteCompletion) and \
                    completion.status == pi4.STATUS_OK:
                stats.entries_written += 1
            else:
                stats.write_failures += 1

        def finish() -> None:
            stats.finished_at = self.env.now
            done.succeed(stats)

        db = self.fm.database
        endpoints = db.endpoints()
        stats.endpoints = len(endpoints)
        fm_dsn = self.fm.endpoint.dsn
        requests = []
        for record in endpoints:
            try:
                routes = db_endpoint_routes(db, record.dsn)
            except PathError:
                stats.unroutable_pairs += 1
                continue
            # Address the endpoint itself: loopback for the FM's own
            # endpoint, its discovered route otherwise.
            target_pool = record.route()
            target_out: Optional[int]
            target_out = None if record.dsn == fm_dsn else record.out_port
            for slot, (dst_dsn, (pool, _src_out)) in enumerate(
                sorted(routes.items())
            ):
                entry = PathTableCapability.encode_entry(
                    dst_dsn, pool.pool, pool.bits
                )
                message = pi4.WriteRequest(
                    cap_id=PATH_TABLE_CAP_ID,
                    offset=slot * 5,
                    tag=0,
                    data=tuple(entry),
                )
                stats.writes_sent += 1
                stats.bytes_sent += 8 + 16 + 16 + 20 + 4  # framing+hdr+pi4+data+pcrc
                requests.append((message, target_pool, target_out, None))
        self.fm.send_all(requests, on_write, finish)
        return done
