"""The fabric manager's topology database.

During discovery the FM accumulates, per device: its general
information (type, DSN, port count), the state of each port, the
device's neighbours, and a source route from the FM to the device —
"the paths that these packets need to reach fabric devices are computed
as the topology information grows" (paper, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..capability import DEVICE_TYPE_ENDPOINT, DEVICE_TYPE_SWITCH
from ..routing.graph import Graph, bfs_tree, component
from ..routing.turnpool import Hop, TurnPool, build_turn_pool, intern_hop


class DatabaseError(RuntimeError):
    """Raised on inconsistent database updates."""


@dataclass(slots=True)
class PortRecord:
    """What the FM knows about one port of a device."""

    #: None until the port's status block has been read.
    up: Optional[bool] = None
    #: DSN of the device on the far side, once discovered.
    neighbor_dsn: Optional[int] = None
    #: Far-side port index, once known.
    neighbor_port: Optional[int] = None


@dataclass(slots=True)
class DeviceRecord:
    """What the FM knows about one device."""

    dsn: int
    type_code: int
    nports: int
    fm_capable: bool = False
    #: Port of this device on which FM requests arrive (None for the
    #: FM's own endpoint).
    ingress_port: Optional[int] = None
    #: Switch traversals between the FM and this device (the route the
    #: FM uses to address it).
    route_hops: List[Hop] = field(default_factory=list)
    #: FM-local egress port for the first link of the route.
    out_port: int = 0
    ports: Dict[int, PortRecord] = field(default_factory=dict)
    #: ``route_hops`` packed, from the first :meth:`route` after they
    #: were assigned until they are assigned again (below).
    _route: Optional[TurnPool] = field(default=None, init=False,
                                       repr=False, compare=False)

    @property
    def is_switch(self) -> bool:
        return self.type_code == DEVICE_TYPE_SWITCH

    @property
    def is_endpoint(self) -> bool:
        return self.type_code == DEVICE_TYPE_ENDPOINT

    def route(self) -> TurnPool:
        """The FM -> device source route as a packed turn pool."""
        pool = self._route
        if pool is None:
            pool = self._route = build_turn_pool(self.route_hops)
        return pool

    def port(self, index: int) -> PortRecord:
        """The record for port ``index`` (created on first access)."""
        if not 0 <= index < self.nports:
            raise DatabaseError(
                f"port {index} outside device {self.dsn:#x} "
                f"with {self.nports} ports"
            )
        return self.ports.setdefault(index, PortRecord())

    def copy(self) -> "DeviceRecord":
        """A deep copy: own hop list, own port records."""
        return replace(
            self, route_hops=list(self.route_hops),
            ports={index: replace(port)
                   for index, port in self.ports.items()},
        )


# A record's hops are assigned whole — a new route is a new list, here
# and in the discovery walk — so the packed route belongs to the
# assignment: storing hops forgets it, and every port read in between
# reuses the one pack.
_hops_slot = DeviceRecord.route_hops


def _assign_hops(record: DeviceRecord, hops: List[Hop]) -> None:
    _hops_slot.__set__(record, hops)
    record._route = None


DeviceRecord.route_hops = property(_hops_slot.__get__, _assign_hops)


class TopologyDatabase:
    """DSN-keyed store of device records and links."""

    def __init__(self):
        self._devices: Dict[int, DeviceRecord] = {}
        #: True while every record's route fields are exactly what
        #: :meth:`recompute_routes` would produce — the invariant that
        #: lets an incremental recompute keep untouched subtrees.
        #: Additions (new devices/links) clear it: their routes come
        #: from the discovery walk, not from a recompute.
        self._routes_canonical = False
        #: Shortest-path tree of the last recompute:
        #: ``dsn -> (parent_dsn, parent_out_port, ingress_port)``
        #: (``(None, None, None)`` for the FM endpoint).
        self._route_tree: Dict[int, Tuple] = {}
        #: Devices whose port records mutated since the last recompute;
        #: their (and their children's) hops must be re-derived.
        self._touched: set = set()

    def copy(self) -> "TopologyDatabase":
        """A snapshot: own records, the same interned hops, and the
        route-recompute state, so an incremental recompute on the copy
        runs exactly as it would on this database."""
        clone = TopologyDatabase()
        clone._devices = {dsn: r.copy() for dsn, r in self._devices.items()}
        clone._routes_canonical = self._routes_canonical
        clone._route_tree = dict(self._route_tree)
        clone._touched = set(self._touched)
        return clone

    def __deepcopy__(self, memo) -> "TopologyDatabase":
        return self.copy()

    # -- mutation ------------------------------------------------------------
    def clear(self) -> None:
        """Discard everything (the paper's full-rediscovery assumption)."""
        self.__init__()

    def touch(self, dsn: int) -> None:
        """Note an out-of-band port mutation on ``dsn``.

        Callers that flip port state directly on a record (rather than
        through :meth:`mark_port_down` / :meth:`add_link`) must report
        it here so an incremental route recompute re-derives the hops
        around that device.
        """
        self._touched.add(dsn)

    def add_device(self, record: DeviceRecord) -> DeviceRecord:
        if record.dsn in self._devices:
            raise DatabaseError(f"device {record.dsn:#x} already known")
        self._devices[record.dsn] = record
        self._routes_canonical = False
        return record

    def add_link(self, dsn_a: int, port_a: int, dsn_b: int,
                 port_b: Optional[int]) -> None:
        """Record connectivity between two known devices.

        ``port_b`` may be None when the far-side port index is not yet
        known (it is learned from the completion's arrival port).
        """
        rec_a = self.device(dsn_a)
        pa = rec_a.port(port_a)
        pa.up = True
        pa.neighbor_dsn = dsn_b
        pa.neighbor_port = port_b
        rec_b = self.device(dsn_b)
        if port_b is not None:
            pb = rec_b.port(port_b)
            pb.up = True
            pb.neighbor_dsn = dsn_a
            pb.neighbor_port = port_a
        self._routes_canonical = False

    # -- queries --------------------------------------------------------------
    def __contains__(self, dsn: int) -> bool:
        return dsn in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    def device(self, dsn: int) -> DeviceRecord:
        try:
            return self._devices[dsn]
        except KeyError:
            raise DatabaseError(f"unknown device {dsn:#x}") from None

    def devices(self) -> List[DeviceRecord]:
        return list(self._devices.values())

    def switches(self) -> List[DeviceRecord]:
        return [r for r in self._devices.values() if r.is_switch]

    def endpoints(self) -> List[DeviceRecord]:
        return [r for r in self._devices.values() if r.is_endpoint]

    # -- routes ----------------------------------------------------------------
    def extend_route(self, parent: DeviceRecord,
                     egress_port: int) -> Tuple[List[Hop], int]:
        """Route to the device behind ``parent``'s ``egress_port``.

        Returns ``(route_hops, fm_out_port)``.  For the FM's own
        endpoint (no ingress), the route starts on the FM's local port
        ``egress_port`` with zero turns; otherwise the parent switch is
        traversed with one more turn.
        """
        if parent.ingress_port is None:
            return list(parent.route_hops), egress_port
        if not parent.is_switch:
            raise DatabaseError(
                f"cannot route through endpoint {parent.dsn:#x}"
            )
        hops = list(parent.route_hops)
        hops.append(intern_hop(parent.nports, parent.ingress_port,
                               egress_port))
        return hops, parent.out_port

    def route_to_fm(self, record: DeviceRecord) -> Tuple[TurnPool, int]:
        """Source route *from* ``record`` back to the FM endpoint.

        Returns ``(turn_pool, device_out_port)``; used to program
        event-route capabilities.  The reverse route traverses the same
        switches in opposite order, swapping ingress and egress.
        """
        if record.ingress_port is None:
            raise DatabaseError("the FM endpoint needs no route to itself")
        reverse_hops = [
            intern_hop(hop.nports, hop.out_port, hop.in_port)
            for hop in reversed(record.route_hops)
        ]
        return build_turn_pool(reverse_hops), record.ingress_port

    def mark_port_down(self, dsn: int, port_index: int) -> None:
        """Record a link failure on both sides of the link."""
        record = self.device(dsn)
        port = record.port(port_index)
        port.up = False
        self._touched.add(dsn)
        neighbor = port.neighbor_dsn
        if neighbor is not None and neighbor in self._devices:
            far = self._devices[neighbor]
            self._touched.add(neighbor)
            if port.neighbor_port is not None:
                far.port(port.neighbor_port).up = False
            else:
                for candidate in far.ports.values():
                    if candidate.neighbor_dsn == dsn:
                        candidate.up = False

    def prune_unreachable(self, root_dsn: int) -> List[int]:
        """Drop devices no longer connected to ``root_dsn``.

        Returns the DSNs removed.  Used by partial change assimilation
        after link-down events.
        """
        graph = self.graph()
        if root_dsn not in graph:
            return []
        keep = component(graph, root_dsn)
        removed = [dsn for dsn in self._devices if dsn not in keep]
        for dsn in removed:
            del self._devices[dsn]
        # Clear dangling neighbor references.
        gone = set(removed)
        for record in self._devices.values():
            for port in record.ports.values():
                if port.neighbor_dsn in gone:
                    port.neighbor_dsn = None
                    port.neighbor_port = None
                    port.up = False
                    self._touched.add(record.dsn)
        return removed

    @property
    def routes_canonical(self) -> bool:
        """Whether stored routes match a recompute of the current state."""
        return self._routes_canonical

    def recompute_routes(self, fm_dsn: int,
                         incremental: bool = False) -> dict:
        """Rebuild every record's source route from the FM.

        After a partial assimilation, routes discovered through a
        now-removed region would be stale; shortest paths over the
        updated database replace them.

        With ``incremental=True`` and a database whose routes are
        already in recompute-canonical form, only routes transiting
        the changed region are rebuilt — records whose shortest-path
        parent, link ports, and full ancestor chain are untouched keep
        their stored hops.  The result is bit-identical to a full
        recompute — which is the same walk down the BFS tree
        (:func:`~repro.routing.graph.bfs_tree`) with nothing to keep;
        when the canonical invariant does not hold (fresh discovery
        output, merged databases), the call silently runs the full
        recompute instead.

        Returns ``{"mode", "rebuilt", "kept"}`` counters for
        diagnostics and benchmarks.
        """
        incremental = incremental and self._routes_canonical
        mode = "incremental" if incremental else "full"
        graph = self.graph()
        if fm_dsn not in graph:
            return {"mode": mode, "rebuilt": 0, "kept": 0}
        # Parents come before their children, so a rebuilt route is
        # its parent's plus one hop.  A full recompute is the walk
        # with an empty old tree: every record is dirty.
        parent = bfs_tree(graph, fm_dsn)
        old_tree = self._route_tree if incremental else {}
        touched = self._touched
        tree: Dict[int, Tuple] = {}
        dirty: set = set()
        for v, p in parent.items():
            record = self._devices[v]
            if p is None:
                record.route_hops = []
                record.ingress_port = None
                tree[v] = (None, None, None)
                continue
            old = old_tree.get(v)
            if (old is not None and old[0] == p and p not in dirty
                    and p not in touched and v not in touched):
                # Same parent, both endpoints untouched, clean ancestor
                # chain: the stored route is already what a full
                # recompute would rebuild.
                tree[v] = old
                continue
            out_port, in_port = self.link_ports(p, v)
            tree[v] = entry = (p, out_port, in_port)
            if entry == old and p not in dirty:
                continue
            dirty.add(v)
            if p == fm_dsn:
                record.route_hops = []
                record.out_port = out_port
            else:
                prec = self._devices[p]
                record.route_hops = prec.route_hops + [intern_hop(
                    prec.nports, prec.ingress_port, out_port)]
                record.out_port = prec.out_port
            record.ingress_port = in_port
        self._route_tree = tree
        self._touched = set()
        self._routes_canonical = True
        return {"mode": mode, "rebuilt": len(dirty),
                "kept": len(parent) - 1 - len(dirty)}

    def link_ports(self, dsn_a: int, dsn_b: int) -> Tuple[int, int]:
        """Ports wiring two adjacent known devices.

        Returns ``(port_on_a, port_on_b)``; picks the lowest-numbered
        port when redundant links exist (deterministic).
        """
        record_a = self.device(dsn_a)
        for index in sorted(record_a.ports):
            port = record_a.ports[index]
            if port.neighbor_dsn == dsn_b and port.up:
                far = port.neighbor_port
                if far is None:
                    record_b = self.device(dsn_b)
                    for j in sorted(record_b.ports):
                        if record_b.ports[j].neighbor_dsn == dsn_a:
                            far = j
                            break
                if far is None:
                    raise DatabaseError(
                        f"far port of {dsn_a:#x}->{dsn_b:#x} unknown"
                    )
                return index, far
        raise DatabaseError(
            f"no up link between {dsn_a:#x} and {dsn_b:#x}"
        )

    # -- views -----------------------------------------------------------------
    def graph(self) -> Graph:
        """The discovered topology as a DSN-keyed graph."""
        g = Graph()
        for record in self._devices.values():
            g.add_node(
                record.dsn,
                kind="switch" if record.is_switch else "endpoint",
                nports=record.nports,
            )
        for record in self._devices.values():
            near = g.adj[record.dsn]
            for port in record.ports.values():
                # Both sides record a link, and parallel links repeat
                # it: the first sighting alone decides the order.
                if (port.up and port.neighbor_dsn in self._devices
                        and port.neighbor_dsn not in near):
                    g.add_edge(record.dsn, port.neighbor_dsn)
        return g

    def summary(self) -> dict:
        """Counts used by experiment reports.

        ``links`` is :meth:`graph`'s edge count — distinct device
        pairs joined by an up port, whichever side recorded it, the
        neighbour known — counted without building the graph.
        """
        known = self._devices
        links = {
            (dsn, port.neighbor_dsn) if dsn < port.neighbor_dsn
            else (port.neighbor_dsn, dsn)
            for dsn, record in known.items()
            for port in record.ports.values()
            if port.up and port.neighbor_dsn in known
        }
        return {
            "devices": len(known),
            "switches": len(self.switches()),
            "endpoints": len(self.endpoints()),
            "links": len(links),
        }
