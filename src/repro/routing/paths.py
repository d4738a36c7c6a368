"""Path computation: shortest source routes over a topology.

"The information gathered by [discovery] is used to build a set of
paths between fabric endpoints" (paper, abstract).  This module builds
turn-pool source routes both from the FM's discovered database (the
production path) and from a live fabric's ground truth (used by tests
and by the background-traffic workload).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from .graph import Graph, NoPath, shortest_path
from .turnpool import Hop, TurnPool, build_turn_pool


class PathError(RuntimeError):
    """Raised when no route exists or wiring info is missing."""


# -- routes over the FM database ------------------------------------------

def _db_link_ports(db) -> Callable:
    """``db.link_ports`` for :func:`_route`: the database's own wiring
    lookup, its ``DatabaseError`` raised as :class:`PathError`."""
    # Imported here: ``manager`` builds on ``routing``, not the reverse.
    from ..manager.database import DatabaseError

    def link_ports(dsn_a: int, dsn_b: int) -> Tuple[int, int]:
        try:
            return db.link_ports(dsn_a, dsn_b)
        except DatabaseError as exc:
            raise PathError(str(exc)) from None
    return link_ports


def _label(node) -> str:
    """A node as messages print it: DSNs in hex, device names quoted."""
    return f"{node:#x}" if isinstance(node, int) else repr(node)


def _route(graph: Graph, link_ports: Callable,
           src, dst) -> Tuple[TurnPool, int]:
    """Shortest route over ``graph``: ``(turn_pool, out_port_at_src)``.

    ``link_ports(a, b)`` gives ``(port_on_a, port_on_b)`` for two
    adjacent nodes; what sits in between is read off the node
    attributes (``kind``, ``nports``).
    """
    if src == dst:
        return build_turn_pool([]), 0
    try:
        node_path = shortest_path(graph, src, dst)
    except NoPath:
        raise PathError(
            f"no path from {_label(src)} to {_label(dst)}") from None
    wires = [link_ports(a, b) for a, b in zip(node_path, node_path[1:])]
    hops: List[Hop] = []
    for node, (_, in_port), (egress, _) in zip(
            node_path[1:], wires, wires[1:]):
        attrs = graph.nodes[node]
        if attrs["kind"] != "switch":
            raise PathError(f"path traverses endpoint {_label(node)}")
        hops.append(Hop(attrs["nports"], in_port, egress))
    return build_turn_pool(hops), wires[0][0]


def db_route(db, src_dsn: int, dst_dsn: int) -> Tuple[TurnPool, int]:
    """Shortest route ``src -> dst`` over a discovered database.

    Returns ``(turn_pool, out_port_at_src)``.
    """
    return _route(db.graph(), _db_link_ports(db), src_dsn, dst_dsn)


def db_endpoint_routes(db, src_dsn: int) -> Dict[int, Tuple[TurnPool, int]]:
    """Routes from ``src_dsn`` to every other endpoint in the database
    (one graph, one search per destination)."""
    graph, link_ports = db.graph(), _db_link_ports(db)
    return {
        record.dsn: _route(graph, link_ports, src_dsn, record.dsn)
        for record in db.endpoints() if record.dsn != src_dsn
    }


# -- routes over fabric ground truth ----------------------------------------

def _fabric_link_ports(graph: Graph, a: str, b: str) -> Tuple[int, int]:
    """Ports wiring two adjacent devices of :meth:`Fabric.graph`."""
    ports = graph.adj[a][b]["ports"]
    return ports[a], ports[b]


def fabric_route(fabric, src: str, dst: str) -> Tuple[TurnPool, int]:
    """Shortest route between two devices of a live fabric.

    Uses the ground-truth graph (tests, traffic generation, failover
    bootstrap).  Returns ``(turn_pool, out_port_at_src)``.
    """
    graph = fabric.graph(active_only=True)
    return _route(graph, partial(_fabric_link_ports, graph), src, dst)


def fabric_endpoint_routes(fabric, src: str) -> Dict[str, Tuple[TurnPool, int]]:
    """Ground-truth routes from endpoint ``src`` to all other endpoints
    (one graph, one search per destination)."""
    graph = fabric.graph(active_only=True)
    link_ports = partial(_fabric_link_ports, graph)
    routes: Dict[str, Tuple[TurnPool, int]] = {}
    for endpoint in fabric.endpoints():
        if endpoint.name == src or not endpoint.active:
            continue
        try:
            routes[endpoint.name] = _route(graph, link_ports, src,
                                           endpoint.name)
        except PathError:
            continue  # unreachable after a change
    return routes
