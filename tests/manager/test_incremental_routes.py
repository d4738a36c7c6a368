"""Property tests: incremental route recompute == full recompute.

The partial-assimilation manager rebuilds routes after every down
event.  The incremental mode keeps routes whose shortest-path-tree
edge and ancestor chain are untouched; these tests drive seeded fault
sequences over several topology families and check, after EVERY
fault, that the incrementally maintained database is bit-identical to
a from-scratch full recompute of the same state.
"""

import copy
import random

import pytest

from repro.capability import DEVICE_TYPE_ENDPOINT, DEVICE_TYPE_SWITCH
from repro.manager.database import DeviceRecord, TopologyDatabase
from repro.routing.turnpool import intern_hop
from repro.topology import (
    make_dragonfly,
    make_fat_tree2,
    make_irregular,
    make_mesh,
)


def _db_from_spec(spec):
    """A discovery-shaped database built straight from a spec.

    Records are inserted in spec order (switches then endpoints) and
    links in spec order, mirroring how a deterministic walk would
    populate the database.
    """
    db = TopologyDatabase()
    dsn_of = {}
    next_dsn = 0x0100_0000
    for name in spec.endpoints:
        dsn_of[name] = next_dsn
        db.add_device(DeviceRecord(dsn=next_dsn,
                                   type_code=DEVICE_TYPE_ENDPOINT,
                                   nports=1))
        next_dsn += 1
    for name, nports in spec.switches:
        dsn_of[name] = next_dsn
        db.add_device(DeviceRecord(dsn=next_dsn,
                                   type_code=DEVICE_TYPE_SWITCH,
                                   nports=nports))
        next_dsn += 1
    for a, pa, b, pb in spec.links:
        db.add_link(dsn_of[a], pa, dsn_of[b], pb)
    return db, dsn_of


def _route_snapshot(db):
    snap = {}
    for record in db.devices():
        snap[record.dsn] = (
            tuple(record.route_hops),
            record.out_port,
            record.ingress_port,
            record.route().pool,
            record.route().bits,
        )
    return snap


def _up_links(db):
    links = []
    for record in db.devices():
        for index in sorted(record.ports):
            port = record.ports[index]
            if port.up and port.neighbor_dsn is not None:
                links.append((record.dsn, index))
    return links


SPECS = [
    ("mesh44", lambda: make_mesh(4, 4)),
    ("dragonfly", lambda: make_dragonfly(4, 6, endpoints_per_switch=2)),
    ("fattree2", lambda: make_fat_tree2(16, switch_ports=8)),
    ("irregular", lambda: make_irregular(10, extra_links=4, seed=5)),
]


class TestIncrementalMatchesFull:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name,factory", SPECS)
    def test_identical_after_every_fault(self, name, factory, seed):
        spec = factory()
        db, dsn_of = _db_from_spec(spec)
        fm = dsn_of[spec.fm_host]
        assert db.recompute_routes(fm)["mode"] == "full"
        rng = random.Random(seed)
        kept_any = rebuilt_any = False
        for _step in range(12):
            if _step % 3 == 2:
                # Targeted fault: down a route-tree edge (the ingress
                # link of some record), guaranteeing subtree surgery.
                victims = [r for r in db.devices()
                           if r.ingress_port is not None]
                if not victims:
                    break
                victim = rng.choice(sorted(victims, key=lambda r: r.dsn))
                dsn, port = victim.dsn, victim.ingress_port
            else:
                links = _up_links(db)
                if not links:
                    break
                dsn, port = rng.choice(links)
            db.mark_port_down(dsn, port)
            db.prune_unreachable(fm)
            if fm not in db:
                break
            reference = copy.deepcopy(db)
            result = db.recompute_routes(fm, incremental=True)
            assert result["mode"] == "incremental"
            reference.recompute_routes(fm)  # full, from scratch
            assert _route_snapshot(db) == _route_snapshot(reference), (
                f"{name} seed={seed} step={_step}: incremental diverged "
                f"from full after downing port {port} of {dsn:#x}"
            )
            kept_any = kept_any or result["kept"] > 0
            rebuilt_any = rebuilt_any or result["rebuilt"] > 0
        # The run must have exercised both sides of the skip decision,
        # or the property pins nothing.
        assert kept_any, f"{name} seed={seed}: no route was ever kept"
        assert rebuilt_any, f"{name} seed={seed}: no route was ever rebuilt"

    def test_device_removal_bursts_match_full(self):
        """Whole-device removals (every port down at once) stay exact."""
        spec = make_dragonfly(4, 5)
        db, dsn_of = _db_from_spec(spec)
        fm = dsn_of[spec.fm_host]
        db.recompute_routes(fm)
        rng = random.Random(99)
        for _ in range(6):
            switches = [r for r in db.switches()
                        if r.dsn != fm and len(db) > 4]
            if not switches:
                break
            victim = rng.choice(sorted(switches, key=lambda r: r.dsn))
            for index in sorted(victim.ports):
                if victim.ports[index].up:
                    db.mark_port_down(victim.dsn, index)
            db.prune_unreachable(fm)
            reference = copy.deepcopy(db)
            assert db.recompute_routes(
                fm, incremental=True)["mode"] == "incremental"
            reference.recompute_routes(fm)
            assert _route_snapshot(db) == _route_snapshot(reference)


class TestCanonicalInvariant:
    def test_additions_force_full_recompute(self):
        spec = make_mesh(3, 3)
        db, dsn_of = _db_from_spec(spec)
        fm = dsn_of[spec.fm_host]
        db.recompute_routes(fm)
        assert db.routes_canonical
        # A new device + link (hot add) invalidates the stored tree.
        db.add_device(DeviceRecord(dsn=0x999, type_code=DEVICE_TYPE_SWITCH,
                                   nports=4))
        some_switch = next(r for r in db.switches() if r.dsn != 0x999)
        free = max(some_switch.ports, default=0) + 1
        db.add_link(some_switch.dsn, free, 0x999, 0)
        assert not db.routes_canonical
        assert db.recompute_routes(fm, incremental=True)["mode"] == "full"
        assert db.routes_canonical

    def test_clear_resets_canonical_state(self):
        spec = make_mesh(2, 2)
        db, dsn_of = _db_from_spec(spec)
        fm = dsn_of[spec.fm_host]
        db.recompute_routes(fm)
        db.clear()
        assert not db.routes_canonical


class TestSnapshot:
    """``TopologyDatabase.copy()`` (and ``copy.deepcopy``, which calls
    it): own records, the same interned hops, the recompute state."""

    @pytest.fixture
    def touched(self):
        spec = make_fat_tree2(64)
        db, dsn_of = _db_from_spec(spec)
        fm = dsn_of[spec.fm_host]
        db.recompute_routes(fm)
        victim = sorted((r for r in db.switches()
                         if r.ingress_port is not None),
                        key=lambda r: r.dsn)[-1]
        db.mark_port_down(victim.dsn, victim.ingress_port)
        return db, fm

    @pytest.mark.parametrize("take", [TopologyDatabase.copy, copy.deepcopy])
    def test_equal_by_value_sharing_hops(self, touched, take):
        db, _ = touched
        clone = take(db)
        assert type(clone) is TopologyDatabase
        assert clone._devices == db._devices
        assert clone._route_tree == db._route_tree
        assert clone._touched == db._touched and clone._touched
        assert clone.routes_canonical == db.routes_canonical
        hops = 0
        for record in db.devices():
            mine = clone.device(record.dsn)
            assert mine is not record and mine.ports is not record.ports
            assert mine.route_hops is not record.route_hops
            for a, b in zip(mine.route_hops, record.route_hops):
                assert a is b
                hops += 1
        assert hops > len(db)

    def test_the_copy_is_independent(self, touched):
        db, fm = touched
        before = _route_snapshot(db)
        clone = db.copy()
        clone.recompute_routes(fm)
        some = next(r for r in clone.devices()
                    if any(p.up for p in r.ports.values()))
        index = next(i for i, p in some.ports.items() if p.up)
        some.port(index).up = False
        assert _route_snapshot(db) == before
        assert db._touched and not clone._touched
        assert db.device(some.dsn).ports[index].up is True

    def test_incremental_on_the_copy_equals_full(self, touched):
        db, fm = touched
        incremental, full = db.copy(), db.copy()
        assert incremental.recompute_routes(
            fm, incremental=True)["mode"] == "incremental"
        assert full.recompute_routes(fm)["mode"] == "full"
        assert _route_snapshot(incremental) == _route_snapshot(full)


# -- one tree builder, checked against the one it replaced --------------------

def _pre_pr_routes(db, fm_dsn, monkeypatch):
    """What PR 17's ``_recompute_full`` stored for every record but the
    FM's, as ``(hops, out_port, ingress_port)``: networkx's
    ``single_source_shortest_path`` tree over the same graph, every hop
    of every path looked up through ``link_ports``."""
    nx = pytest.importorskip("networkx")
    with monkeypatch.context() as patch:
        patch.setattr("repro.manager.database.Graph", nx.Graph)
        graph = db.graph()
    routes = {}
    for dsn, path in nx.single_source_shortest_path(graph, fm_dsn).items():
        if dsn == fm_dsn:
            continue
        wires = [db.link_ports(a, b) for a, b in zip(path, path[1:])]
        hops = tuple(
            intern_hop(db.device(node).nports, in_port, out_port)
            for node, (_, in_port), (out_port, _)
            in zip(path[1:], wires, wires[1:]))
        routes[dsn] = (hops, wires[0][0], wires[-1][1])
    return routes


def _stored(db, dsns):
    snapshot = _route_snapshot(db)
    return {dsn: snapshot[dsn][:3] for dsn in dsns}


@pytest.mark.parametrize("topology", [
    "3x3 mesh", "3x3 torus", "4-port 2-tree", "dragonfly-k2m3",
    "fattree2-16", "irregular-8+4 (seed=1)",
])
def test_full_equals_incremental_equals_the_replaced_builder(
        topology, monkeypatch):
    """The assertion ``perf/``'s ``probe_recompute`` makes, as tier-1:
    fail one route-tree link of a discovered database, recompute both
    ways — plus the routes the deleted networkx-based builder stored."""
    from repro.experiments.runner import build_simulation, run_until_ready
    from repro.topology import resolve_topology
    setup = build_simulation(resolve_topology(topology))
    run_until_ready(setup)
    db, fm = setup.fm.database, setup.fm.endpoint.dsn
    assert db.recompute_routes(fm) == {
        "mode": "full", "rebuilt": len(db) - 1, "kept": 0}
    switches = sorted((r for r in db.switches()
                       if r.ingress_port is not None), key=lambda r: r.dsn)
    victim = random.Random(18).choice(switches)
    full = copy.deepcopy(db)
    full.mark_port_down(victim.dsn, victim.ingress_port)
    incremental = copy.deepcopy(full)
    counts = incremental.recompute_routes(fm, incremental=True)
    assert counts["mode"] == "incremental"
    assert full.recompute_routes(fm)["mode"] == "full"
    assert _route_snapshot(incremental) == _route_snapshot(full)
    # From here on the library is needed (skips without it).
    expected = _pre_pr_routes(db, fm, monkeypatch)
    assert len(expected) == len(db) - 1
    assert _stored(db, expected) == expected
    # Records cut off by the failure keep their stale routes (nobody
    # pruned here); the replaced builder did not visit them either.
    expected = _pre_pr_routes(full, fm, monkeypatch)
    assert _stored(full, expected) == expected
