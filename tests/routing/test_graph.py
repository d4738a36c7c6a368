"""The graph module: its own contract, and a differential oracle.

``repro.routing.graph`` replaced networkx (PR 18).  Which of several
equally short paths a search returns is observable — traffic routes,
``path`` answers and programmed routes hang on it — so the second half
of this file builds the same graphs with the library (where it is
installed; it is a test-only dependency) through the *unchanged*
builder code and demands equal order everywhere, not just equal sets.
"""

import random

import pytest

from repro.routing.graph import (
    Graph,
    NoPath,
    bfs_tree,
    component,
    shortest_path,
)
from repro.sim import Environment
from repro.topology import resolve_topology

from ..manager.test_database import odd_database


class TestGraph:
    def test_add_edge_adds_its_ends_in_argument_order(self):
        g = Graph()
        g.add_edge("b", "a")
        g.add_edge("a", "c")
        assert list(g.nodes) == ["b", "a", "c"]
        assert {n: list(near) for n, near in g.adj.items()} == {
            "b": ["a"], "a": ["b", "c"], "c": ["a"]}
        assert len(g) == 3 and "c" in g and "d" not in g

    def test_both_directions_share_one_attribute_dict(self):
        g = Graph()
        g.add_edge(1, 2, ports={1: 0, 2: 5})
        assert g.adj[1][2] is g.adj[2][1]
        assert g.adj[2][1]["ports"] == {1: 0, 2: 5}

    def test_re_adding_keeps_position_and_merges_attributes(self):
        g = Graph()
        g.add_node(1, kind="switch")
        g.add_edge(1, 2, a=1)
        g.add_edge(1, 3)
        g.add_edge(2, 1, b=2)            # parallel link: collapses
        g.add_node(1, nports=16)
        assert list(g.adj[1]) == [2, 3]
        assert g.adj[1][2] == {"a": 1, "b": 2}
        assert g.nodes[1] == {"kind": "switch", "nports": 16}
        assert g.number_of_edges() == 2

    def test_a_self_loop_is_one_entry_and_one_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 2)
        assert list(g.adj[2]) == [1, 2]
        assert g.edges == [(1, 2), (2, 2)]
        assert g.number_of_edges() == 2

    def test_edges_come_once_each_at_their_first_end(self):
        g = Graph()
        for a, b in [(3, 1), (1, 2), (2, 3), (4, 1)]:
            g.add_edge(a, b)
        assert g.edges == [(3, 1), (3, 2), (1, 2), (1, 4)]


def square() -> Graph:
    """0-1-2-3-0: two equally short ways between opposite corners."""
    g = Graph()
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        g.add_edge(a, b)
    return g


class TestSearches:
    def test_bfs_tree_is_in_discovery_order_first_finder_is_parent(self):
        g = square()
        g.add_edge(2, 4)
        assert list(bfs_tree(g, 0).items()) == [
            (0, None), (1, 0), (3, 0), (2, 1), (4, 2)]

    def test_component_stops_at_the_cut(self):
        g = square()
        g.add_edge(7, 8)
        g.add_node(9)
        assert component(g, 2) == {0, 1, 2, 3}
        assert component(g, 8) == {7, 8}
        assert component(g, 9) == {9}

    def test_shortest_path_tie_break_is_pinned(self):
        # Forward level {1, 3}, then the reverse side scans 2's
        # neighbours in adjacency order and meets 1 first.
        g = square()
        assert shortest_path(g, 0, 2) == [0, 1, 2]
        assert shortest_path(g, 2, 0) == [2, 1, 0]
        assert shortest_path(g, 1, 3) == [1, 2, 3]

    def test_shortest_path_trivial_cases(self):
        g = square()
        assert shortest_path(g, 2, 2) == [2]
        assert shortest_path(g, 0, 1) == [0, 1]
        g.add_edge(5, 5)
        assert shortest_path(g, 5, 5) == [5]

    @pytest.mark.parametrize("src,dst", [(0, 9), (9, 0), (9, 9), (0, 7)])
    def test_no_path(self, src, dst):
        g = square()
        g.add_edge(7, 8)                 # another component; 9 missing
        with pytest.raises(NoPath):
            shortest_path(g, src, dst)


# -- differential oracle ------------------------------------------------------

TOPOLOGIES = ["3x3 mesh", "8x8 mesh", "torus64", "fattree2-1024",
              "dragonfly-k4m5", "irregular-32+16 (seed=1)"]


def damaged_fabric(name, seed):
    """The topology with ~10% of its links failed (at least three,
    one of them an endpoint's only link, so no-path pairs exist)."""
    fabric = resolve_topology(name).build(Environment())
    fabric.power_up()
    rng = random.Random(seed)
    victims = rng.sample(fabric.links, max(2, len(fabric.links) // 10))
    victims.append(fabric.endpoints()[-1].ports[0].link)
    for link in victims:
        link.take_down()
    return fabric


def assert_same_graph(ours: Graph, theirs) -> None:
    assert list(ours.nodes) == list(theirs.nodes)
    assert ours.nodes == dict(theirs.nodes)
    assert ({n: list(near) for n, near in ours.adj.items()}
            == {n: list(near) for n, near in theirs.adj.items()})
    assert ours.edges == list(theirs.edges)
    assert ours.number_of_edges() == theirs.number_of_edges()
    assert len(ours) == len(theirs)
    assert all(ours.adj[a][b] == theirs.edges[a, b] for a, b in ours.edges)


def oracle_path(nx, theirs, src, dst):
    try:
        return nx.shortest_path(theirs, src, dst)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def our_path(ours, src, dst):
    try:
        return shortest_path(ours, src, dst)
    except NoPath:
        return None


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_fabric_graph_and_searches_equal_networkx(name, monkeypatch):
    nx = pytest.importorskip("networkx")
    fabric = damaged_fabric(name, seed=18)
    ours = fabric.graph()
    # The same builder, handed the library's class: the graph the old
    # code built.
    monkeypatch.setattr("repro.fabric.fabric.Graph", nx.Graph)
    theirs = fabric.graph()
    assert isinstance(theirs, nx.Graph) and isinstance(ours, Graph)
    assert_same_graph(ours, theirs)

    rng = random.Random(name)
    nodes = list(ours.nodes)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(1000)]
    pairs += [(rng.choice(nodes), "nowhere"), ("nowhere", rng.choice(nodes)),
              ("nowhere", "nowhere")]
    pairs += [(node, fabric.endpoints()[-1].name) for node in nodes[:20]]
    unreachable = 0
    for src, dst in pairs:
        expected = oracle_path(nx, theirs, src, dst)
        assert our_path(ours, src, dst) == expected, (src, dst)
        unreachable += expected is None
    assert unreachable >= 15

    for source in (nodes[0], nodes[len(nodes) // 2], nodes[-1]):
        paths = nx.single_source_shortest_path(theirs, source)
        tree = bfs_tree(ours, source)
        assert list(tree) == list(paths)
        assert all(tree[node] == (path[-2] if len(path) > 1 else None)
                   for node, path in paths.items())
        assert component(ours, source) == nx.node_connected_component(
            theirs, source)


def discovered_database(name):
    from repro.experiments.runner import build_simulation, run_until_ready
    setup = build_simulation(resolve_topology(name))
    run_until_ready(setup)
    db = setup.fm.database
    switch = db.switches()[1]
    db.mark_port_down(switch.dsn, min(switch.ports))
    return db


@pytest.mark.parametrize("make", [
    odd_database,
    lambda: discovered_database("3x3 mesh"),
    lambda: discovered_database("dragonfly-k2m3"),
], ids=["odd", "mesh9", "dragonfly"])
def test_database_graph_equals_networkx(make, monkeypatch):
    nx = pytest.importorskip("networkx")
    db = make()
    ours = db.graph()
    monkeypatch.setattr("repro.manager.database.Graph", nx.Graph)
    theirs = db.graph()
    assert_same_graph(ours, theirs)
    for src in ours.nodes:
        for dst in ours.nodes:
            assert our_path(ours, src, dst) == oracle_path(
                nx, theirs, src, dst)
