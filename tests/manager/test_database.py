"""Unit tests for the FM topology database."""

import pytest

from repro.capability import DEVICE_TYPE_ENDPOINT, DEVICE_TYPE_SWITCH
from repro.manager.database import (
    DatabaseError,
    DeviceRecord,
    PortRecord,
    TopologyDatabase,
)
from repro.routing.turnpool import Hop


def endpoint_record(dsn, **kwargs):
    return DeviceRecord(dsn=dsn, type_code=DEVICE_TYPE_ENDPOINT, nports=1,
                        **kwargs)


def switch_record(dsn, nports=16, **kwargs):
    return DeviceRecord(dsn=dsn, type_code=DEVICE_TYPE_SWITCH,
                        nports=nports, **kwargs)


def odd_database():
    """Parallel links, a one-sided record, a loopback cable and a
    neighbour that was never added."""
    db = TopologyDatabase()
    for dsn in (1, 2, 3, 4):
        db.add_device(switch_record(dsn))
    db.add_link(1, 0, 2, 0)
    db.add_link(1, 1, 2, 1)            # parallel to the first
    db.add_link(2, 2, 3, None)         # far port not known yet
    db.add_link(3, 3, 4, 3)
    db.add_link(4, 5, 4, 6)            # a loopback cable
    dangling = db.device(1).port(7)    # neighbour never added
    dangling.up, dangling.neighbor_dsn = True, 99
    return db


class TestRecords:
    def test_type_predicates(self):
        assert endpoint_record(1).is_endpoint
        assert not endpoint_record(1).is_switch
        assert switch_record(2).is_switch

    def test_port_record_created_on_access(self):
        rec = switch_record(1)
        port = rec.port(3)
        assert isinstance(port, PortRecord)
        assert port.up is None
        assert rec.port(3) is port

    def test_port_bounds_enforced(self):
        rec = endpoint_record(1)
        with pytest.raises(DatabaseError):
            rec.port(1)

    def test_route_packs_hops(self):
        rec = switch_record(1, route_hops=[Hop(16, 0, 5)])
        pool = rec.route()
        assert pool.bits == 4

    def test_copy_is_deep_ports_included(self):
        rec = switch_record(1, route_hops=[Hop(16, 0, 5)], ingress_port=0,
                            out_port=2, fm_capable=True)
        rec.port(3).up = True
        rec.port(3).neighbor_dsn = 9
        clone = rec.copy()
        assert clone == rec
        assert clone.route_hops is not rec.route_hops
        assert clone.ports[3] is not rec.ports[3]
        clone.port(3).up = False
        clone.route_hops.append(Hop(16, 1, 2))
        assert rec.ports[3].up is True
        assert len(rec.route_hops) == 1


class TestDatabase:
    def test_add_and_lookup(self):
        db = TopologyDatabase()
        rec = db.add_device(switch_record(0xA))
        assert 0xA in db
        assert db.device(0xA) is rec
        assert len(db) == 1

    def test_duplicate_dsn_rejected(self):
        db = TopologyDatabase()
        db.add_device(switch_record(0xA))
        with pytest.raises(DatabaseError, match="already known"):
            db.add_device(switch_record(0xA))

    def test_unknown_lookup_raises(self):
        with pytest.raises(DatabaseError):
            TopologyDatabase().device(0x1)

    def test_clear(self):
        db = TopologyDatabase()
        db.add_device(switch_record(0xA))
        db.clear()
        assert len(db) == 0

    def test_add_link_records_both_sides(self):
        db = TopologyDatabase()
        db.add_device(switch_record(0xA))
        db.add_device(switch_record(0xB))
        db.add_link(0xA, 3, 0xB, 7)
        assert db.device(0xA).port(3).neighbor_dsn == 0xB
        assert db.device(0xB).port(7).neighbor_dsn == 0xA
        assert db.device(0xB).port(7).neighbor_port == 3

    def test_add_link_with_unknown_far_port(self):
        db = TopologyDatabase()
        db.add_device(switch_record(0xA))
        db.add_device(switch_record(0xB))
        db.add_link(0xA, 3, 0xB, None)
        assert db.device(0xA).port(3).neighbor_dsn == 0xB
        assert db.device(0xB).ports == {}

    def test_switch_endpoint_filters(self):
        db = TopologyDatabase()
        db.add_device(switch_record(1))
        db.add_device(endpoint_record(2))
        assert [r.dsn for r in db.switches()] == [1]
        assert [r.dsn for r in db.endpoints()] == [2]

    def test_graph_view(self):
        db = TopologyDatabase()
        db.add_device(endpoint_record(1))
        db.add_device(switch_record(2))
        db.add_link(1, 0, 2, 4)
        g = db.graph()
        assert set(g.nodes) == {1, 2}
        assert g.edges == [(1, 2)]
        assert g.nodes[2]["kind"] == "switch"

    def test_summary(self):
        db = TopologyDatabase()
        db.add_device(endpoint_record(1))
        db.add_device(switch_record(2))
        db.add_link(1, 0, 2, 4)
        assert db.summary() == {
            "devices": 2, "switches": 1, "endpoints": 1, "links": 1,
        }

    def test_summary_links_are_the_graph_edges_on_odd_databases(self):
        """Parallel links collapse, a neighbour outside the database is
        skipped, a one-sided record counts, a downed port does not."""
        db = odd_database()
        assert (4, 4) in db.graph().edges  # the cable: one edge, not half
        assert db.summary()["links"] == db.graph().number_of_edges() == 4
        db.mark_port_down(3, 3)
        assert db.summary()["links"] == db.graph().number_of_edges() == 3
        db.prune_unreachable(1)
        assert db.summary()["links"] == db.graph().number_of_edges() == 2

    @pytest.mark.parametrize("topology", [
        "3x3 mesh", "3x3 torus", "4-port 2-tree", "dragonfly-k2m3",
        "fattree2-16", "irregular-8+4 (seed=1)",
    ])
    def test_summary_links_match_graph_on_every_family(self, topology):
        from repro.experiments.runner import (
            build_simulation,
            run_until_ready,
        )
        from repro.topology.registry import resolve_topology
        spec = resolve_topology(topology)
        setup = build_simulation(spec)
        run_until_ready(setup)
        db = setup.fm.database
        assert db.summary()["links"] == db.graph().number_of_edges()
        assert db.summary()["devices"] == spec.total_devices
        # ... and with a port of the first switch marked down.
        switch = db.switches()[0]
        db.mark_port_down(switch.dsn, min(switch.ports))
        assert db.summary()["links"] == db.graph().number_of_edges()


class TestRoutes:
    def test_extend_route_from_fm_endpoint(self):
        db = TopologyDatabase()
        fm = db.add_device(endpoint_record(1, ingress_port=None))
        hops, out = db.extend_route(fm, 0)
        assert hops == []
        assert out == 0

    def test_extend_route_through_switch(self):
        db = TopologyDatabase()
        sw = db.add_device(
            switch_record(2, ingress_port=4, route_hops=[], out_port=0)
        )
        hops, out = db.extend_route(sw, 9)
        assert hops == [Hop(16, 4, 9)]
        assert out == 0

    def test_extend_route_through_endpoint_rejected(self):
        db = TopologyDatabase()
        ep = db.add_device(endpoint_record(3, ingress_port=0))
        with pytest.raises(DatabaseError, match="endpoint"):
            db.extend_route(ep, 0)

    def test_route_to_fm_reverses_hops(self):
        db = TopologyDatabase()
        rec = db.add_device(
            switch_record(
                5, ingress_port=2,
                route_hops=[Hop(16, 4, 9), Hop(16, 1, 3)], out_port=0,
            )
        )
        pool, device_out = db.route_to_fm(rec)
        assert device_out == 2
        # The reverse route traverses the same switches in opposite
        # order with in/out swapped.
        from repro.routing.turnpool import build_turn_pool

        expected = build_turn_pool([Hop(16, 3, 1), Hop(16, 9, 4)])
        assert pool == expected

    def test_route_to_fm_for_fm_endpoint_rejected(self):
        db = TopologyDatabase()
        fm = db.add_device(endpoint_record(1, ingress_port=None))
        with pytest.raises(DatabaseError):
            db.route_to_fm(fm)
