"""Tests for path computation over databases and fabrics."""

import pytest

from repro.experiments.runner import build_simulation, run_until_ready
from repro.fabric import Packet, make_management_header
from repro.fabric.packet import PI_DEVICE_MANAGEMENT
from repro.manager import PARALLEL
from repro.routing.paths import (
    PathError,
    db_endpoint_routes,
    db_route,
    fabric_endpoint_routes,
    fabric_route,
)
from repro.topology import make_mesh, make_torus


@pytest.fixture(scope="module")
def discovered():
    setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL,
                             auto_start=False)
    setup.fm.start_discovery()
    run_until_ready(setup)
    return setup


def deliver_and_check(setup, src_name, dst_name, pool, out_port):
    """Inject a packet along (pool, out_port) and assert delivery."""
    got = []
    dst = setup.fabric.device(dst_name)
    previous = dst.local_handler
    dst.local_handler = lambda packet, port: got.append(packet)
    header = make_management_header(pool.pool, pool.bits,
                                    pi=PI_DEVICE_MANAGEMENT)
    setup.fabric.device(src_name).inject(Packet(header=header),
                                         port_index=out_port)
    setup.env.run(until=setup.env.now + 1e-4)
    dst.local_handler = previous
    return got


class TestDbRoutes:
    def test_route_to_far_endpoint_delivers(self, discovered):
        db = discovered.fm.database
        src = discovered.fabric.device("ep_0_0")
        dst = discovered.fabric.device("ep_2_2")
        pool, out_port = db_route(db, src.dsn, dst.dsn)
        got = deliver_and_check(discovered, "ep_0_0", "ep_2_2",
                                pool, out_port)
        assert len(got) == 1

    def test_route_between_non_fm_endpoints(self, discovered):
        db = discovered.fm.database
        src = discovered.fabric.device("ep_1_2")
        dst = discovered.fabric.device("ep_2_0")
        pool, out_port = db_route(db, src.dsn, dst.dsn)
        got = deliver_and_check(discovered, "ep_1_2", "ep_2_0",
                                pool, out_port)
        assert len(got) == 1

    def test_self_route_is_empty(self, discovered):
        db = discovered.fm.database
        dsn = discovered.fabric.device("ep_0_0").dsn
        pool, out_port = db_route(db, dsn, dsn)
        assert pool.bits == 0

    def test_endpoint_routes_cover_all_others(self, discovered):
        db = discovered.fm.database
        src = discovered.fabric.device("ep_0_0")
        routes = db_endpoint_routes(db, src.dsn)
        assert len(routes) == 8  # 9 endpoints minus self

    def test_unknown_destination_raises(self, discovered):
        db = discovered.fm.database
        src = discovered.fabric.device("ep_0_0")
        with pytest.raises(PathError):
            db_route(db, src.dsn, 0xFFFF_FFFF)

    def test_route_length_is_shortest(self, discovered):
        """Mesh corner to corner: 4 switch hops of 4 bits plus the
        endpoint attachment hops (2 more switches traversed)."""
        db = discovered.fm.database
        src = discovered.fabric.device("ep_0_0")
        dst = discovered.fabric.device("ep_2_2")
        pool, _ = db_route(db, src.dsn, dst.dsn)
        # Path ep - sw00 - sw01/sw10 ... sw22 - ep: 5 switches traversed.
        assert pool.bits == 5 * 4


class TestOneWiringLookup:
    """``TopologyDatabase.link_ports`` is the only lookup of the ports
    that wire two records; ``paths`` raises its ``DatabaseError`` as
    ``PathError``, message kept."""

    @staticmethod
    def one_sided_database():
        from repro.capability import (
            DEVICE_TYPE_ENDPOINT,
            DEVICE_TYPE_SWITCH,
        )
        from repro.manager.database import DeviceRecord, TopologyDatabase
        db = TopologyDatabase()
        for dsn in (10, 11):
            db.add_device(DeviceRecord(
                dsn=dsn, type_code=DEVICE_TYPE_ENDPOINT, nports=1))
        for dsn in (1, 2):
            db.add_device(DeviceRecord(
                dsn=dsn, type_code=DEVICE_TYPE_SWITCH, nports=16))
        db.add_link(10, 0, 1, 0)
        db.add_link(1, 1, 2, None)  # far port not known yet
        db.add_link(2, 2, 11, 0)
        return db

    def test_database_error_surfaces_as_path_error(self):
        from repro.manager.database import DatabaseError
        db = self.one_sided_database()
        with pytest.raises(DatabaseError, match="far port of 0x1->0x2"):
            db.link_ports(1, 2)
        with pytest.raises(PathError, match="far port of 0x1->0x2 unknown"):
            db_route(db, 10, 11)
        with pytest.raises(PathError, match="no up link between 0x2 and"):
            db_route(db, 11, 10)

    def test_endpoint_routes_raise_at_the_first_unroutable_pair(self):
        with pytest.raises(PathError, match="far port of 0x1->0x2 unknown"):
            db_endpoint_routes(self.one_sided_database(), 10)


class TestFabricRoutes:
    def test_ground_truth_route_delivers(self, discovered):
        pool, out_port = fabric_route(discovered.fabric, "ep_0_1", "ep_2_1")
        got = deliver_and_check(discovered, "ep_0_1", "ep_2_1",
                                pool, out_port)
        assert len(got) == 1

    def test_unreachable_after_partition(self):
        setup = build_simulation(make_mesh(1, 3), algorithm=PARALLEL,
                                 auto_start=False)
        setup.fabric.remove_device("sw_0_1")
        with pytest.raises(PathError):
            fabric_route(setup.fabric, "ep_0_0", "ep_0_2")

    def test_endpoint_routes_skip_unreachable(self):
        setup = build_simulation(make_mesh(1, 3), algorithm=PARALLEL,
                                 auto_start=False)
        setup.fabric.remove_device("sw_0_1")
        routes = fabric_endpoint_routes(setup.fabric, "ep_0_0")
        assert routes == {}

    def test_torus_routes_deliver_everywhere(self):
        setup = build_simulation(make_torus(3, 3), algorithm=PARALLEL,
                                 auto_start=False)
        routes = fabric_endpoint_routes(setup.fabric, "ep_0_0")
        assert len(routes) == 8
        for dst, (pool, out_port) in routes.items():
            got = deliver_and_check(setup, "ep_0_0", dst, pool, out_port)
            assert len(got) == 1, dst


class TestOneGraphPerSource:
    """All-destination route sets build their graph once (they used to
    build it once per destination: 4,032 graphs and 2.8 s before the
    first simulated event of a load run on the 8x8 mesh) and still
    return, pair by pair, what the single-pair functions return."""

    @staticmethod
    def counting(monkeypatch, owner):
        calls = []
        original = owner.graph

        def graph(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, "graph", graph)
        return calls

    def test_fabric_routes_on_the_8x8_mesh(self, monkeypatch):
        fabric = build_simulation(make_mesh(8, 8), auto_start=False).fabric
        fabric.fail_link("sw_3_3", "sw_3_4")     # ties and detours
        names = [endpoint.name for endpoint in fabric.endpoints()]
        calls = self.counting(monkeypatch, fabric)
        for src in names[::9]:
            del calls[:]
            routes = fabric_endpoint_routes(fabric, src)
            assert len(calls) == 1
            assert routes == {dst: fabric_route(fabric, src, dst)
                              for dst in names if dst != src}

    def test_db_routes(self, discovered, monkeypatch):
        db = discovered.fm.database
        calls = self.counting(monkeypatch, db)
        for src in db.endpoints():
            del calls[:]
            routes = db_endpoint_routes(db, src.dsn)
            assert len(calls) == 1
            assert routes == {dst.dsn: db_route(db, src.dsn, dst.dsn)
                              for dst in db.endpoints() if dst is not src}
