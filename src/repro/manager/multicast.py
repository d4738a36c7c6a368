"""Multicast group management — one of the fabric-management functions
the paper enumerates in section 2 ("multicast group management").

After discovery, the FM can build a multicast group: it computes a
distribution tree over its topology database (the union of shortest
paths between the member endpoints), then programs each on-tree
switch's multicast forwarding table through the multicast capability
(PI-4 writes, up to eight operations per packet).  Member endpoints
then reach the whole group with a single injected packet whose
turn-pool field carries the group id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..capability.multicast import MULTICAST_CAP_ID, OP_ADD, encode_op
from ..protocols import pi4
from ..routing.graph import NoPath, shortest_path
from ..sim.events import Event
from .fm import FabricManager


class MulticastError(RuntimeError):
    """Raised when a group cannot be built."""


@dataclass
class GroupProgrammingStats:
    """Cost of programming one multicast group."""

    group: int
    members: int = 0
    switches_programmed: int = 0
    table_entries: int = 0
    writes_sent: int = 0
    write_failures: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


def compute_group_tree(db, member_dsns: Sequence[int]) -> Dict[int, Set[int]]:
    """Distribution tree as ``{device_dsn: {ports on the tree}}``.

    The tree is the union of shortest paths from the first member to
    every other member — loop-free by construction (a union of
    shortest paths from one source is a tree).
    """
    members = list(dict.fromkeys(member_dsns))
    if len(members) < 2:
        raise MulticastError("a multicast group needs at least two members")
    for dsn in members:
        record = db.device(dsn)
        if not record.is_endpoint:
            raise MulticastError(f"{dsn:#x} is not an endpoint")

    graph = db.graph()
    root = members[0]
    ports: Dict[int, Set[int]] = {}
    edges: Set[Tuple[int, int]] = set()
    for member in members[1:]:
        try:
            path = shortest_path(graph, root, member)
        except NoPath:
            raise MulticastError(
                f"member {member:#x} unreachable from {root:#x}"
            ) from None
        for a, b in zip(path, path[1:]):
            edges.add((min(a, b), max(a, b)))
    for a, b in edges:
        port_a, port_b = db.link_ports(a, b)
        ports.setdefault(a, set()).add(port_a)
        ports.setdefault(b, set()).add(port_b)
    return ports


class MulticastGroupManager:
    """Builds and programs multicast groups on behalf of the FM."""

    def __init__(self, fm: FabricManager):
        self.fm = fm
        self.env = fm.env
        #: Groups built so far: group id -> member dsn list.
        self.groups: Dict[int, List[int]] = {}

    def create_group(self, group: int,
                     member_dsns: Sequence[int]) -> Event:
        """Program ``group``; the event triggers with the stats."""
        tree = compute_group_tree(self.fm.database, member_dsns)
        stats = GroupProgrammingStats(
            group=group, members=len(set(member_dsns)),
            started_at=self.env.now,
        )
        done = self.env.event()

        def on_write(completion, _ctx) -> None:
            if not isinstance(completion, pi4.WriteCompletion) or \
                    completion.status != pi4.STATUS_OK:
                stats.write_failures += 1

        def finish() -> None:
            stats.finished_at = self.env.now
            self.groups[group] = list(dict.fromkeys(member_dsns))
            done.succeed(stats)

        db = self.fm.database
        requests = []
        for dsn, port_set in sorted(tree.items()):
            record = db.device(dsn)
            if not record.is_switch:
                continue  # endpoints consume; no table to program
            stats.switches_programmed += 1
            ops = [encode_op(OP_ADD, group, port)
                   for port in sorted(port_set)]
            stats.table_entries += len(ops)
            out = record.out_port if record.ingress_port is not None else None
            for start in range(0, len(ops), 8):
                chunk = tuple(ops[start:start + 8])
                message = pi4.WriteRequest(
                    cap_id=MULTICAST_CAP_ID, offset=0, tag=0, data=chunk,
                )
                stats.writes_sent += 1
                requests.append((message, record.route(), out, None))
        self.fm.send_all(requests, on_write, finish)
        return done
