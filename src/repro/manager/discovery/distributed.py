"""Distributed discovery over collaborative fabric managers.

Paper future work (section 5): "One of them is to distribute the
entire process through several collaborative fabric managers, in order
to increase parallelization."

Protocol implemented here:

* Every collaborating FM runs a *claiming* variant of the Parallel
  algorithm.  When an FM receives a new device's general information,
  it first writes a claim (owner DSN + round generation) into the
  device's claim capability (:mod:`repro.capability.claim`).  The
  device's serial packet processing makes the write an atomic
  test-and-set: the first FM gets ``STATUS_OK``, later FMs get
  ``STATUS_CONFLICT``.
* An FM that wins the claim reads the device's ports and keeps
  exploring behind it; a loser records the device and the link it
  arrived through, but stops there — the winner's region begins.
* When every FM's frontier is exhausted, the helpers stream their
  region databases to the primary (one PI-4 write per device record
  into the primary's endpoint, modelling the merge traffic), and the
  primary assembles the union.

Routes between the collaborators are assumed known before the walk
starts; the coordinator provides them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ...capability import CLAIM_CAP_ID, ClaimCapability
from ...protocols import pi4
from ...routing.turnpool import TurnPool
from ...sim.events import Event
from ..database import DeviceRecord, TopologyDatabase
from ..fm import FabricManager, barrier
from .base import DiscoveryStats
from .parallel import ParallelDiscovery

#: Algorithm label for claiming explorations.
DISTRIBUTED = "distributed"

#: Five dwords of record payload streamed per device during the merge.
_MERGE_WRITE_DWORDS = 5


class ClaimingParallelDiscovery(ParallelDiscovery):
    """Parallel discovery that claims devices before exploring them."""

    key = DISTRIBUTED

    def __init__(self, fm, generation: int = 1):
        super().__init__(fm)
        self.generation = generation
        #: DSNs this FM owns (claims it won).
        self.owned: set = set()
        #: DSNs seen but owned by another collaborator.
        self.foreign: set = set()

    # A new device is claimed before its ports are read.
    def on_new_device(self, record: DeviceRecord) -> None:
        message = pi4.WriteRequest(
            cap_id=CLAIM_CAP_ID, offset=0, tag=0,
            data=tuple(
                ClaimCapability.encode(self.fm.endpoint.dsn,
                                       self.generation)
            ),
        )
        out = record.out_port if record.ingress_port is not None else None
        self._outstanding += 1
        self.fm.send_request(
            message, record.route(), out,
            callback=self._on_claim, ctx=record,
        )

    def _on_claim(self, completion, record: DeviceRecord) -> None:
        self._outstanding -= 1
        if (isinstance(completion, pi4.WriteCompletion)
                and completion.status == pi4.STATUS_OK):
            self.owned.add(record.dsn)
            super().on_new_device(record)  # read the ports, explore on
        else:
            # Claimed by a collaborator (or unreachable): boundary.
            self.foreign.add(record.dsn)
            self.stats.abandoned_targets += (
                0 if completion is not None else 1
            )
        self._maybe_finish()


@dataclass
class CollaborativeStats:
    """Outcome of one collaborative discovery round."""

    generation: int
    exploration_times: Dict[str, float] = field(default_factory=dict)
    region_sizes: Dict[str, int] = field(default_factory=dict)
    merge_writes: int = 0
    merge_duration: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    per_fm: Dict[str, DiscoveryStats] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """End-to-end: exploration (parallel) plus the merge stream."""
        return self.finished_at - self.started_at

    @property
    def total_packets(self) -> int:
        return sum(s.total_packets for s in self.per_fm.values()) + \
            2 * self.merge_writes


class CollaborativeDiscovery:
    """Coordinates one discovery round across several FMs.

    Parameters
    ----------
    primary:
        The FM that ends up with the merged database.
    helpers:
        Additional FMs, each with a route to the primary:
        ``[(fm, (turn_pool, out_port)), ...]``.
    generation:
        Claim generation for this round (bump it per round).
    """

    def __init__(self, primary: FabricManager,
                 helpers: List[Tuple[FabricManager, Tuple[TurnPool, int]]],
                 generation: int = 1):
        if not helpers:
            raise ValueError("collaborative discovery needs helpers")
        self.primary = primary
        self.helpers = helpers
        self.generation = generation
        self.env = primary.env

    def run(self) -> Event:
        """Start the round; the event triggers with the stats."""
        stats = CollaborativeStats(
            generation=self.generation, started_at=self.env.now,
        )
        done = self.env.event()
        fms = [self.primary] + [fm for fm, _route in self.helpers]
        explorations: Dict[str, ClaimingParallelDiscovery] = {}

        def explored(_event, name: str) -> None:
            exp = explorations[name]
            stats.per_fm[name] = exp.stats
            stats.exploration_times[name] = exp.stats.discovery_time
            stats.region_sizes[name] = len(exp.owned)

        finished = barrier(
            len(fms), explored,
            lambda: self._merge(stats, explorations, done),
        )
        for fm in fms:
            fm.database.clear()
            exploration = ClaimingParallelDiscovery(
                fm, generation=self.generation
            )
            fm.discovery = exploration
            explorations[fm.endpoint.name] = exploration
            exploration.done_event.callbacks.append(
                partial(finished, ctx=fm.endpoint.name)
            )
            exploration.start(trigger="collaborative")
        return done

    # -- merge phase ------------------------------------------------------------
    def _merge(self, stats: CollaborativeStats,
               explorations: Dict[str, ClaimingParallelDiscovery],
               done: Event) -> None:
        merge_start = self.env.now

        def merged() -> None:
            self._assemble(stats, explorations)
            stats.merge_duration = self.env.now - merge_start
            stats.finished_at = self.env.now
            done.succeed(stats)

        # One write per owned record models the transfer cost;
        # content rides out-of-band (see module docstring).
        generation = (self.generation + 1) & 0xFFFF
        writes = [
            (fm, pi4.WriteRequest(
                cap_id=CLAIM_CAP_ID, offset=0, tag=0,
                data=tuple(ClaimCapability.encode(dsn, generation)),
            ), route)
            for fm, route in self.helpers
            for dsn in sorted(explorations[fm.endpoint.name].owned)
        ]
        stats.merge_writes += len(writes)
        acked = barrier(len(writes), lambda _completion, _ctx: None, merged)
        for fm, message, (pool, out_port) in writes:
            fm.send_request(message, pool, out_port, callback=acked)

    def _assemble(self, stats: CollaborativeStats,
                  explorations: Dict[str, ClaimingParallelDiscovery]) -> None:
        """Union the regional databases into the primary's."""
        primary_db = self.primary.database
        for name, exploration in explorations.items():
            if exploration.fm is self.primary:
                continue
            for record in exploration.fm.database.devices():
                if record.dsn not in primary_db:
                    primary_db.add_device(record.copy())
            for record in exploration.fm.database.devices():
                target = primary_db.device(record.dsn)
                for index, port in record.ports.items():
                    mine = target.port(index)
                    if mine.up is None:
                        mine.up = port.up
                    if port.neighbor_dsn is not None:
                        mine.neighbor_dsn = port.neighbor_dsn
                        mine.neighbor_port = port.neighbor_port
                        mine.up = port.up
        # Routes imported from helpers are relative to *their* vantage
        # point; rebuild everything relative to the primary.
        primary_db.recompute_routes(self.primary.endpoint.dsn)
