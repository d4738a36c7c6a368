"""Distributed fabric-manager election.

"After the fabric is powered up, a distributed process is triggered in
order to select primary and secondary fabric managers.  Only these two
endpoints can configure the fabric.  If the primary FM fails, the
secondary one takes over." (paper, section 2)

The specification leaves the election protocol to implementers; we use
a controlled flood, the standard technique for leaderless topologies
(no routes exist yet — discovery has not run):

* every FM-capable endpoint announces its candidacy (election priority
  from its baseline capability, DSN as tie-break) in a multicast packet
  after a small per-device jitter;
* every device forwards announcements out of all other active ports,
  suppressing duplicates by ``(candidate DSN, sequence)`` — the flood
  terminates even on cyclic fabrics.  Switches have no multicast
  forwarding hardware in this model: a PI-0 packet always goes to the
  device's management entity, whose ``flood_handler`` re-floods it
  with ``send_multicast``;
* after a settle period every endpoint ranks the candidates it has
  seen: the best becomes primary, the runner-up secondary.

Ranking: higher priority wins; equal priorities break toward the
higher DSN.

Every announcement also carries the round's **ownership epoch** — the
generation number the winner will stamp into each device's claim
capability (see :mod:`repro.capability.claim` and the fencing logic in
:class:`~repro.manager.fm.FabricManager`).  Epochs are strictly
monotonic across rounds: a manager that wins epoch ``N`` and later
observes a claim from epoch ``N+1`` knows it lost a newer election and
must demote itself instead of split-braining the fabric.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

from ..fabric.endpoint import Endpoint
from ..protocols.entity import ManagementEntity
from ..sim.events import Event

#: Magic number identifying election announcements among multicasts.
ELECTION_MAGIC = 0xE1EC

_FMT = struct.Struct(">HBBHHIIQ")

#: Announcement format version (2 added the ownership epoch).
ELECTION_VERSION = 2


class ElectionError(RuntimeError):
    """Raised on malformed election messages or setups."""


@dataclass(frozen=True)
class Candidacy:
    """One endpoint's announcement."""

    priority: int
    dsn: int
    seq: int
    #: Ownership epoch of the election round (claim-capability
    #: generation the winner will stamp; 16 bits on the wire).
    epoch: int = 0

    def pack(self) -> bytes:
        return _FMT.pack(ELECTION_MAGIC, ELECTION_VERSION, 0,
                         self.epoch & 0xFFFF, 0, self.priority, self.seq,
                         self.dsn)

    @classmethod
    def unpack(cls, payload: bytes) -> "Candidacy":
        if len(payload) < _FMT.size:
            raise ElectionError("election payload too short")
        (magic, version, _rsvd, epoch, _rsvd2, priority, seq,
         dsn) = _FMT.unpack_from(payload)
        if magic != ELECTION_MAGIC:
            raise ElectionError(f"bad election magic {magic:#x}")
        return cls(priority=priority, dsn=dsn, seq=seq, epoch=epoch)

    @property
    def rank(self) -> Tuple[int, int]:
        """Sort key: higher is better."""
        return (self.priority, self.dsn)


class ElectionAgent:
    """Per-device election participant.

    Switches (and endpoints) forward announcements; FM-capable
    endpoints additionally originate their own candidacy and track the
    best candidates seen.
    """

    def __init__(self, entity: ManagementEntity,
                 jitter: float = 0.0):
        self.entity = entity
        self.device = entity.device
        self.env = entity.env
        self.jitter = jitter
        self.seen: Set[Tuple[int, int]] = set()
        self.candidates: Dict[int, Candidacy] = {}
        self._seq = count(1)
        entity.flood_handler = self._on_flood

    @property
    def is_candidate(self) -> bool:
        return (
            isinstance(self.device, Endpoint)
            and getattr(self.device, "fm_capable", False)
        )

    def announce(self, epoch: int = 0) -> None:
        """Originate this endpoint's candidacy (after the jitter)."""
        if not self.is_candidate:
            raise ElectionError(f"{self.device.name} cannot run for FM")
        candidacy = Candidacy(
            priority=self.device.fm_priority,
            dsn=self.device.dsn,
            seq=next(self._seq),
            epoch=epoch,
        )
        self._record(candidacy)

        def fire():
            self.seen.add((candidacy.dsn, candidacy.seq))
            self.entity.send_multicast(candidacy.pack())

        if self.jitter > 0:
            self.env.call_later(self.jitter, fire)
        else:
            fire()

    def _record(self, candidacy: Candidacy) -> None:
        known = self.candidates.get(candidacy.dsn)
        if known is None or ((candidacy.epoch, candidacy.seq)
                             > (known.epoch, known.seq)):
            self.candidates[candidacy.dsn] = candidacy

    def _on_flood(self, packet, port) -> None:
        try:
            candidacy = Candidacy.unpack(packet.payload)
        except ElectionError:
            self.entity.stats.incr("election_decode_errors")
            return
        key = (candidacy.dsn, candidacy.seq)
        if key in self.seen:
            self.entity.stats.incr("election_duplicates_suppressed")
            return
        self.seen.add(key)
        self._record(candidacy)
        # Controlled flood: forward out of every other active port.
        exclude = port.index if port is not None else None
        self.entity.send_multicast(packet.payload, exclude_port=exclude)

    def ranking(self) -> List[Candidacy]:
        """Candidates seen so far, best first."""
        return sorted(self.candidates.values(),
                      key=lambda c: c.rank, reverse=True)


@dataclass
class ElectionResult:
    """Outcome of an election round."""

    primary_dsn: Optional[int]
    secondary_dsn: Optional[int]
    #: Whether every FM-capable endpoint computed the same ranking.
    consensus: bool
    #: Per-endpoint view: endpoint DSN -> (primary, secondary).
    views: Dict[int, Tuple[Optional[int], Optional[int]]] = field(
        default_factory=dict
    )
    #: Ownership epoch of this round (the winner stamps claims with it).
    epoch: int = 0


class Election:
    """Runs one election round over a powered-up fabric."""

    def __init__(self, entities: Dict[str, ManagementEntity],
                 settle_time: float = 1e-3,
                 max_jitter: float = 20e-6,
                 seed: int = 0,
                 epoch: int = 1):
        if settle_time <= 0:
            raise ValueError("settle time must be positive")
        if epoch < 1:
            raise ValueError("election epoch must be at least 1")
        self.settle_time = settle_time
        self.epoch = epoch
        rng = random.Random(seed)
        self.agents: Dict[str, ElectionAgent] = {}
        env = None
        for name, entity in entities.items():
            jitter = rng.uniform(0, max_jitter)
            self.agents[name] = ElectionAgent(entity, jitter=jitter)
            env = entity.env
        if env is None:
            raise ElectionError("election needs at least one device")
        self.env = env

    def run(self) -> Event:
        """Start the round; the returned event yields the result."""
        for agent in self.agents.values():
            if agent.is_candidate:
                agent.announce(epoch=self.epoch)
        done = self.env.event()
        self.env.call_later(self.settle_time,
                            lambda: done.succeed(self._tally()))
        return done

    def _tally(self) -> ElectionResult:
        views: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        for agent in self.agents.values():
            if not agent.is_candidate:
                continue
            ranking = agent.ranking()
            primary = ranking[0].dsn if ranking else None
            secondary = ranking[1].dsn if len(ranking) > 1 else None
            views[agent.device.dsn] = (primary, secondary)
        distinct = set(views.values())
        consensus = len(distinct) == 1
        primary, secondary = (
            next(iter(distinct)) if consensus and distinct else (None, None)
        )
        return ElectionResult(
            primary_dsn=primary,
            secondary_dsn=secondary,
            consensus=consensus,
            views=views,
            epoch=self.epoch,
        )
