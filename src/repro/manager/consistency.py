"""Topology consistency auditing: is the FM's database actually true?

The paper's evaluation can eyeball correctness because each run has
exactly one topological change and a quiescent fabric while the FM
explores.  Under continuous churn (overlapping changes landing
mid-discovery) "the discovery finished" no longer implies "the database
is right" — a silently stale database is worse than a slow one.  The
:class:`TopologyAuditor` makes convergence *checkable*: it diffs the
FM's :class:`~repro.manager.database.TopologyDatabase` against the live
:class:`~repro.fabric.fabric.Fabric` ground truth and produces a
structured :class:`ConsistencyReport` listing every discrepancy:

* **missing devices** — active and reachable from the FM, but absent
  from the database;
* **phantom devices** — in the database, but inactive or unreachable
  in the fabric;
* **missing / phantom links** — edge-set differences between the two
  topologies;
* **stale ports** — ports the database claims are up whose physical
  link is down (or whose far side is dead);
* **bad routes** — each record's stored source route is replayed
  hop-by-hop through the live fabric (turn pool semantics, exactly as
  a switch would consume it); a route that crosses a down link, enters
  a dead device, or terminates at the wrong DSN is flagged.

The auditor is an *oracle*: it reads simulator ground truth the real
FM could never see, so it must only ever be used by tests, soak
harnesses, and experiment post-conditions — never by the management
plane itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..routing.turnpool import TurnPoolError, route_step

#: Difference kinds, in report order.
MISSING_DEVICE = "missing_device"
PHANTOM_DEVICE = "phantom_device"
MISSING_LINK = "missing_link"
PHANTOM_LINK = "phantom_link"
STALE_PORT = "stale_port"
BAD_ROUTE = "bad_route"

KINDS = (MISSING_DEVICE, PHANTOM_DEVICE, MISSING_LINK, PHANTOM_LINK,
         STALE_PORT, BAD_ROUTE)


@dataclass(frozen=True)
class Difference:
    """One discrepancy between the database and the fabric."""

    kind: str
    #: What the difference is about (device name/DSN or link name).
    subject: str
    #: Human-readable explanation.
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass
class ConsistencyReport:
    """Structured outcome of one audit."""

    differences: List[Difference] = field(default_factory=list)
    devices_checked: int = 0
    links_checked: int = 0
    routes_checked: int = 0
    audited_at: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the database exactly matches the reachable fabric."""
        return not self.differences

    def by_kind(self) -> Dict[str, int]:
        """Difference counts per kind (zero-count kinds omitted)."""
        counts: Dict[str, int] = {}
        for diff in self.differences:
            counts[diff.kind] = counts.get(diff.kind, 0) + 1
        return counts

    def of_kind(self, kind: str) -> List[Difference]:
        return [d for d in self.differences if d.kind == kind]

    def asdict(self) -> dict:
        return {
            "ok": self.ok,
            "differences": len(self.differences),
            "by_kind": self.by_kind(),
            "devices_checked": self.devices_checked,
            "links_checked": self.links_checked,
            "routes_checked": self.routes_checked,
            "audited_at": self.audited_at,
        }

    def summary(self) -> str:
        """One line for logs / experiment reports."""
        if self.ok:
            return (
                f"consistent ({self.devices_checked} devices, "
                f"{self.links_checked} links, "
                f"{self.routes_checked} routes)"
            )
        kinds = ", ".join(
            f"{count} {kind}" for kind, count in sorted(self.by_kind().items())
        )
        return f"{len(self.differences)} difference(s): {kinds}"

    def render(self) -> str:
        """Multi-line report, one difference per line."""
        lines = [self.summary()]
        lines += [f"  {diff}" for diff in self.differences]
        return "\n".join(lines)


class TopologyAuditor:
    """Diffs an FM's topology database against the live fabric.

    Parameters
    ----------
    fabric:
        The ground-truth fabric.
    fm:
        The fabric manager whose database is audited.  Only devices
        reachable from the FM's endpoint over active links count as
        ground truth — an unreachable island is invisible to any
        correct discovery.
    """

    def __init__(self, fabric, fm):
        self.fabric = fabric
        self.fm = fm

    # -- ground truth --------------------------------------------------------
    def _truth(self) -> Tuple[Dict[int, str], Set[frozenset]]:
        """Reachable ground truth as ``(dsn -> name, edge set)``."""
        fabric = self.fabric
        reachable = set(fabric.reachable_devices(self.fm.endpoint.name))
        names_by_dsn = {
            fabric.device(name).dsn: name for name in reachable
        }
        edges: Set[frozenset] = set()
        for a, b in fabric.graph(active_only=True).edges:
            if a in reachable and b in reachable:
                edges.add(frozenset((fabric.device(a).dsn,
                                     fabric.device(b).dsn)))
        return names_by_dsn, edges

    @staticmethod
    def _label(dsn: int, names_by_dsn: Dict[int, str]) -> str:
        name = names_by_dsn.get(dsn)
        return f"{name} ({dsn:#x})" if name else f"{dsn:#x}"

    # -- the audit -----------------------------------------------------------
    def audit(self) -> ConsistencyReport:
        """Compare the database with the fabric right now."""
        report = ConsistencyReport(audited_at=self.fm.env.now)
        names_by_dsn = self.audit_graph(report)
        self._audit_ports(report, names_by_dsn)
        self._audit_routes(report, names_by_dsn)
        return report

    def audit_graph(self, report: ConsistencyReport) -> Dict[int, str]:
        """The audit's device and link half: add to ``report`` every
        missing or phantom device and link, and return the reachable
        ground truth's ``dsn -> name``.  Building the fabric graph
        twice, it replays no port and no route."""
        db = self.fm.database
        names_by_dsn, truth_edges = self._truth()
        truth_dsns = set(names_by_dsn)
        db_dsns = {record.dsn for record in db.devices()}
        report.devices_checked = len(truth_dsns | db_dsns)

        for dsn in sorted(truth_dsns - db_dsns):
            report.differences.append(Difference(
                MISSING_DEVICE, self._label(dsn, names_by_dsn),
                "reachable in the fabric but absent from the database",
            ))
        for dsn in sorted(db_dsns - truth_dsns):
            report.differences.append(Difference(
                PHANTOM_DEVICE, self._label(dsn, names_by_dsn),
                "in the database but dead or unreachable in the fabric",
            ))

        db_edges = {
            frozenset(edge) for edge in db.graph().edges
        }
        report.links_checked = len(truth_edges | db_edges)
        shared = truth_dsns & db_dsns
        for edge in sorted(truth_edges - db_edges,
                           key=lambda e: sorted(e)):
            if not edge <= shared:
                continue  # already reported as a device diff
            a, b = sorted(edge)
            report.differences.append(Difference(
                MISSING_LINK,
                f"{self._label(a, names_by_dsn)}"
                f"<->{self._label(b, names_by_dsn)}",
                "link up in the fabric but not in the database",
            ))
        for edge in sorted(db_edges - truth_edges,
                           key=lambda e: sorted(e)):
            if not edge <= shared:
                continue
            a, b = sorted(edge)
            report.differences.append(Difference(
                PHANTOM_LINK,
                f"{self._label(a, names_by_dsn)}"
                f"<->{self._label(b, names_by_dsn)}",
                "link in the database but down in the fabric",
            ))
        return names_by_dsn

    # -- port-level staleness ------------------------------------------------
    def _audit_ports(self, report: ConsistencyReport,
                     names_by_dsn: Dict[int, str]) -> None:
        """Flag database ports claiming *up* whose physical side is not."""
        fabric = self.fabric
        for record in self.fm.database.devices():
            name = names_by_dsn.get(record.dsn)
            if name is None:
                continue  # phantom device, already reported
            device = fabric.device(name)
            for index in sorted(record.ports):
                known = record.ports[index]
                if known.up is not True:
                    continue
                detail = None
                if index >= len(device.ports):
                    detail = "port does not exist on the device"
                else:
                    port = device.ports[index]
                    if port.link is None or not port.link.up:
                        detail = "recorded up but the physical link is down"
                    else:
                        far = port.neighbor()
                        if far is None or not far.device.active:
                            detail = "recorded up but the far device is dead"
                if detail is not None:
                    report.differences.append(Difference(
                        STALE_PORT,
                        f"{self._label(record.dsn, names_by_dsn)}.p{index}",
                        detail,
                    ))

    # -- route replay ----------------------------------------------------------
    def _audit_routes(self, report: ConsistencyReport,
                      names_by_dsn: Dict[int, str]) -> None:
        """Replay each record's turn pool hop-by-hop through the fabric."""
        for record in self.fm.database.devices():
            if record.ingress_port is None:
                continue  # the FM endpoint routes to itself
            if record.dsn not in names_by_dsn:
                continue  # phantom device, already reported
            report.routes_checked += 1
            problem = self._replay_route(record, names_by_dsn)
            if problem is not None:
                report.differences.append(Difference(
                    BAD_ROUTE, self._label(record.dsn, names_by_dsn),
                    problem,
                ))

    def _replay_route(self, record,
                      names_by_dsn: Dict[int, str]) -> Optional[str]:
        """Follow ``record``'s stored route; None if it checks out."""
        endpoint = self.fm.endpoint
        pool = record.route()
        pointer = pool.bits

        # First hop: out of the FM endpoint.
        current, in_port, problem = self._cross_link(
            endpoint, record.out_port)
        if problem is not None:
            return f"at {endpoint.name}.p{record.out_port}: {problem}"

        # Every remaining turn is consumed by a live switch.
        while pointer > 0:
            if current.kind != "switch":
                return (
                    f"route traverses endpoint {current.name} with "
                    f"{pointer} turn bits left"
                )
            if not current.active:
                return f"route traverses dead switch {current.name}"
            try:
                egress, pointer = route_step(
                    0, pool.pool, pointer, in_port, current.nports)
            except TurnPoolError as exc:
                return f"turn pool exhausted at {current.name}: {exc}"
            current, in_port, problem = self._cross_link(current, egress)
            if problem is not None:
                return f"at p{egress}: {problem}"

        if not current.active:
            return f"route terminates at dead device {current.name}"
        if current.dsn != record.dsn:
            return (
                f"route terminates at {current.name} "
                f"({current.dsn:#x}), not at "
                f"{self._label(record.dsn, names_by_dsn)}"
            )
        if in_port != record.ingress_port:
            return (
                f"route arrives on port {in_port}, database says "
                f"ingress {record.ingress_port}"
            )
        return None

    @staticmethod
    def _cross_link(device, egress: int):
        """Step ``device`` -> neighbour via ``egress``.

        Returns ``(next_device, arrival_port, problem)`` with
        ``problem`` a string when the step is impossible.
        """
        if not 0 <= egress < len(device.ports):
            return None, None, (
                f"egress port {egress} outside {device.name}"
            )
        port = device.ports[egress]
        if port.link is None:
            return None, None, f"{device.name}.p{egress} is unwired"
        if not port.link.up:
            return None, None, (
                f"link {port.link.name} is down"
            )
        far = port.neighbor()
        if far is None:
            return None, None, f"{device.name}.p{egress} has no far side"
        return far.device, far.index, None


def audit_topology(fabric, fm) -> ConsistencyReport:
    """Convenience wrapper: one-shot audit of ``fm`` against ``fabric``."""
    return TopologyAuditor(fabric, fm).audit()
