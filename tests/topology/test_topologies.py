"""Unit and property tests for topology generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.graph import component
from repro.sim import Environment
from repro.topology import (
    TABLE1_NAMES,
    TopologySpec,
    make_fattree,
    make_irregular,
    make_mesh,
    make_torus,
    table1_rows,
    table1_suite,
    table1_topology,
)


def built_graph(spec):
    env = Environment()
    fabric = spec.build(env)
    fabric.power_up()
    return fabric.graph()


def is_connected(g):
    return len(component(g, next(iter(g.nodes)))) == len(g)


def degree(g, node):
    return len(g.adj[node])


class TestSpecValidation:
    def test_duplicate_names_rejected(self):
        spec = TopologySpec(name="bad", switches=[("x", 4)], endpoints=["x"])
        with pytest.raises(ValueError, match="duplicate"):
            spec.validate()

    def test_unknown_link_device_rejected(self):
        spec = TopologySpec(
            name="bad", switches=[("a", 4)], endpoints=[],
            links=[("a", 0, "ghost", 0)],
        )
        with pytest.raises(ValueError, match="unknown device"):
            spec.validate()

    def test_port_out_of_range_rejected(self):
        spec = TopologySpec(
            name="bad", switches=[("a", 4), ("b", 4)],
            links=[("a", 4, "b", 0)],
        )
        with pytest.raises(ValueError, match="out of range"):
            spec.validate()

    def test_port_double_wiring_rejected(self):
        spec = TopologySpec(
            name="bad", switches=[("a", 4), ("b", 4), ("c", 4)],
            links=[("a", 0, "b", 0), ("a", 0, "c", 0)],
        )
        with pytest.raises(ValueError, match="wired twice"):
            spec.validate()

    def test_fm_host_must_be_endpoint(self):
        spec = TopologySpec(
            name="bad", switches=[("a", 4)], endpoints=["e"], fm_host="a"
        )
        with pytest.raises(ValueError, match="fm_host"):
            spec.validate()


class TestMesh:
    def test_counts(self):
        spec = make_mesh(3, 4)
        assert spec.num_switches == 12
        assert spec.num_endpoints == 12
        # links: endpoints (12) + horizontal (3*3) + vertical (2*4)
        assert len(spec.links) == 12 + 9 + 8

    def test_connected_and_degrees(self):
        g = built_graph(make_mesh(4, 4))
        assert is_connected(g)
        switch_degrees = sorted(
            degree(g, n) for n, attrs in g.nodes.items()
            if attrs["kind"] == "switch"
        )
        # Corner switches: 2 neighbours + endpoint = 3; centre: 5.
        assert switch_degrees[0] == 3
        assert switch_degrees[-1] == 5

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            make_mesh(0, 3)
        with pytest.raises(ValueError):
            make_mesh(2, 2, switch_ports=4)

    def test_1xn_mesh_is_a_line(self):
        g = built_graph(make_mesh(1, 5))
        assert is_connected(g)
        assert len(g) == 10


class TestTorus:
    def test_counts(self):
        spec = make_torus(4, 4)
        assert spec.num_switches == 16
        # links: endpoints (16) + 2 wrap rings per dimension (16 + 16)
        assert len(spec.links) == 16 + 16 + 16

    def test_all_switches_degree_5(self):
        g = built_graph(make_torus(4, 4))
        for node, attrs in g.nodes.items():
            if attrs["kind"] == "switch":
                assert degree(g, node) == 5  # 4 neighbours + endpoint

    def test_dimension_minimum(self):
        with pytest.raises(ValueError):
            make_torus(1, 4)

    def test_2x2_torus_double_links_are_legal(self):
        spec = make_torus(2, 2)
        spec.validate()
        g = built_graph(spec)
        assert is_connected(g)


class TestFatTree:
    def test_4port_2tree_counts(self):
        spec = make_fattree(4, 2)
        assert spec.num_switches == 4
        assert spec.num_endpoints == 4

    def test_4port_3tree_counts(self):
        spec = make_fattree(4, 3)
        assert spec.num_switches == 12
        assert spec.num_endpoints == 8

    def test_8port_2tree_counts(self):
        spec = make_fattree(8, 2)
        assert spec.num_switches == 8
        assert spec.num_endpoints == 16

    def test_connected(self):
        for ports, levels in [(4, 2), (4, 3), (4, 4), (8, 2)]:
            g = built_graph(make_fattree(ports, levels))
            assert is_connected(g), f"{ports}-port {levels}-tree"

    def test_leaf_switches_fully_loaded(self):
        spec = make_fattree(4, 3)
        g = built_graph(spec)
        leaf_switches = [n for n in g.nodes if n.startswith("sw_l0_")]
        for sw in leaf_switches:
            assert degree(g, sw) == 4  # 2 endpoints down + 2 up links

    def test_top_level_uses_only_down_ports(self):
        spec = make_fattree(4, 3)
        g = built_graph(spec)
        top = [n for n in g.nodes if n.startswith("sw_l2_")]
        for sw in top:
            assert degree(g, sw) == 2  # k down links, no up links

    def test_odd_port_count_rejected(self):
        with pytest.raises(ValueError):
            make_fattree(5, 2)

    def test_endpoints_spread_over_leaves(self):
        spec = make_fattree(8, 2)
        leaf_links = [l for l in spec.links if l[0].startswith("ep")]
        leaves = {l[2] for l in leaf_links}
        assert len(leaves) == 4  # k**(n-1) leaf switches
        # k endpoints per leaf.
        from collections import Counter

        counts = Counter(l[2] for l in leaf_links)
        assert set(counts.values()) == {4}


class TestIrregular:
    def test_deterministic_with_seed(self):
        a = make_irregular(10, extra_links=5, seed=42)
        b = make_irregular(10, extra_links=5, seed=42)
        assert a.links == b.links

    def test_connected(self):
        for seed in range(5):
            g = built_graph(make_irregular(12, extra_links=6, seed=seed))
            assert is_connected(g)

    def test_extra_links_add_cycles(self):
        tree = make_irregular(10, extra_links=0, seed=1)
        cyclic = make_irregular(10, extra_links=5, seed=1)
        assert len(cyclic.links) > len(tree.links)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_irregular(0)

    def test_seed_must_be_an_explicit_integer(self):
        with pytest.raises(ValueError, match="explicit integer seed"):
            make_irregular(5, seed=None)
        with pytest.raises(ValueError, match="explicit integer seed"):
            make_irregular(5, seed="7")

    def test_default_seed_is_reproducible(self):
        assert make_irregular(6, extra_links=2).links == \
            make_irregular(6, extra_links=2, seed=0).links

    def test_name_records_the_generator_arguments(self):
        from repro.topology import parse_irregular_name
        spec = make_irregular(7, extra_links=3, seed=91)
        assert parse_irregular_name(spec.name) == (7, 3, 91)
        assert parse_irregular_name("irregular-4+1 (seed=-2)") == (4, 1, -2)

    def test_parse_rejects_foreign_names(self):
        from repro.topology import parse_irregular_name
        for name in ("3x3 mesh", "irregular", "irregular-4+1",
                     "irregular-4+1 (seed=x)"):
            assert parse_irregular_name(name) is None

    def test_parsed_name_regenerates_the_same_spec(self):
        from repro.topology import parse_irregular_name
        spec = make_irregular(8, extra_links=2, switch_ports=8, seed=13)
        n, e, s = parse_irregular_name(spec.name)
        again = make_irregular(n, extra_links=e, switch_ports=8, seed=s)
        assert again == spec

    def test_spec_document_round_trip_is_lossless(self):
        from repro.experiments.io import spec_from_dict, spec_to_dict
        spec = make_irregular(6, extra_links=2, switch_ports=8, seed=5)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_spec_document_json_round_trip_is_lossless(self):
        import json
        from repro.experiments.io import spec_from_dict, spec_to_dict
        spec = make_irregular(6, extra_links=2, switch_ports=8, seed=5)
        wire = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(wire) == spec


class TestTable1:
    def test_all_names_build(self):
        suite = table1_suite()
        assert [s.name for s in suite] == TABLE1_NAMES

    def test_rows_match_construction(self):
        rows = table1_rows()
        by_name = {r["topology"]: r for r in rows}
        assert by_name["3x3 mesh"]["total_devices"] == 18
        assert by_name["8x8 mesh"]["total_devices"] == 128
        assert by_name["10x10 torus"]["total_devices"] == 200
        for row in rows:
            assert row["total_devices"] == row["switches"] + row["endpoints"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            table1_topology("17x17 hypertorus")

    def test_every_topology_is_connected(self):
        for spec in table1_suite():
            g = built_graph(spec)
            assert is_connected(g), spec.name
            assert len(g) == spec.total_devices


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
    wrap=st.booleans(),
)
def test_property_grid_topologies_always_connected(rows, cols, wrap):
    spec = make_torus(rows, cols) if wrap else make_mesh(rows, cols)
    g = built_graph(spec)
    assert is_connected(g)
    assert len(g) == 2 * rows * cols
