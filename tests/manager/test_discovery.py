"""Integration tests: the three discovery algorithms on live fabrics."""

from array import array

import pytest

from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_ready,
)
from repro.manager import (
    ALGORITHMS,
    PARALLEL,
    SERIAL_DEVICE,
    SERIAL_PACKET,
    ProcessingTimeModel,
)
from repro.routing.graph import bfs_tree
from repro.topology import (
    make_fattree,
    make_irregular,
    make_mesh,
    make_torus,
)

ALL_ALGOS = list(ALGORITHMS)


def hop_distances(fabric, source):
    """BFS distance of every reachable device from ``source``."""
    dist = {}
    for node, parent in bfs_tree(fabric.graph(), source).items():
        dist[node] = 0 if parent is None else dist[parent] + 1
    return dist


def discover(spec, algorithm, timing=None, **kwargs):
    setup = build_simulation(spec, algorithm=algorithm, timing=timing,
                             auto_start=False, **kwargs)
    setup.fm.start_discovery()
    stats = run_until_ready(setup)
    return setup, stats


class TestCorrectness:
    @pytest.mark.parametrize("algorithm", ALL_ALGOS)
    @pytest.mark.parametrize(
        "spec_builder",
        [
            lambda: make_mesh(3, 3),
            lambda: make_torus(3, 3),
            lambda: make_fattree(4, 2),
            lambda: make_fattree(4, 3),
            lambda: make_fattree(8, 2),
            lambda: make_irregular(8, extra_links=4, seed=3),
        ],
        ids=["mesh", "torus", "tree4x2", "tree4x3", "tree8x2", "irregular"],
    )
    def test_discovers_exact_topology(self, algorithm, spec_builder):
        spec = spec_builder()
        setup, stats = discover(spec, algorithm)
        assert database_matches_fabric(setup)
        assert stats.devices_found == spec.total_devices

    @pytest.mark.parametrize("algorithm", ALL_ALGOS)
    def test_single_endpoint_fabric(self, algorithm):
        """Degenerate fabric: just the FM endpoint and one switch."""
        from repro.topology.spec import TopologySpec

        spec = TopologySpec(
            name="tiny", switches=[("sw", 16)], endpoints=["ep"],
            links=[("ep", 0, "sw", 0)], fm_host="ep",
        )
        setup, stats = discover(spec, algorithm)
        assert database_matches_fabric(setup)
        assert stats.devices_found == 2

    @pytest.mark.parametrize("algorithm", ALL_ALGOS)
    def test_fm_only(self, algorithm):
        """An FM whose port is down discovers only itself."""
        from repro.topology.spec import TopologySpec

        spec = TopologySpec(
            name="solo", switches=[("sw", 16)], endpoints=["ep"],
            links=[("ep", 0, "sw", 0)], fm_host="ep",
        )
        setup = build_simulation(spec, algorithm=algorithm,
                                 auto_start=False)
        setup.fabric.fail_link("ep", "sw")
        setup.env.run()  # drain the port-down event
        setup.fm.start_discovery()
        stats = run_until_ready(setup)
        assert stats.devices_found == 1
        assert database_matches_fabric(setup)

    @pytest.mark.parametrize("algorithm", ALL_ALGOS)
    def test_routes_in_database_are_usable(self, algorithm):
        """Every discovered record carries a route that addresses it."""
        spec = make_mesh(3, 3)
        setup, _ = discover(spec, algorithm)
        fabric = setup.fabric
        dist = hop_distances(fabric, setup.fm.endpoint.name)
        for record in setup.fm.database.devices():
            device = fabric.device_by_dsn(record.dsn)
            # The route's hop count equals the BFS distance through
            # switches (each hop is one switch traversal).
            assert len(record.route_hops) == max(0, dist[device.name] - 1)


class TestPacketAccounting:
    def test_packet_count_identical_across_algorithms(self):
        """Section 4.1: "the amount of discovery packets employed by the
        serial and parallel discovery algorithms is very similar" — in
        this implementation the work is identical, so counts match."""
        spec = make_mesh(3, 3)
        counts = {}
        for algorithm in ALL_ALGOS:
            _, stats = discover(spec, algorithm)
            counts[algorithm] = (
                stats.requests_sent, stats.completions_received,
                stats.bytes_sent, stats.bytes_received,
            )
        assert len(set(counts.values())) == 1

    def test_expected_packet_count_for_mesh(self):
        """1 general read per exploration + 1 port read per port."""
        spec = make_mesh(3, 3)
        setup, stats = discover(spec, PARALLEL)
        # Port reads: 9 switches x 16 + 9 endpoints x 1.
        port_reads = 9 * 16 + 9 * 1
        # General reads: one per directed exploration arc + the FM's
        # own endpoint.  Arcs: one per up-port on a device that is not
        # the ingress of its discovery path... simplest invariant:
        # total = requests, and every request got a completion.
        assert stats.completions_received == stats.requests_sent
        assert stats.requests_sent > port_reads
        # Duplicates happen only where cycles exist: the 3x3 mesh has
        # 12 switch-switch links and 17 tree edges over 18 devices.
        assert stats.duplicates_detected == (9 + 12) - (18 - 1) + 4

    def test_tree_topology_has_no_duplicates(self):
        """On an acyclic fabric every device is reached exactly once."""
        spec = make_irregular(6, extra_links=0, seed=1)
        _, stats = discover(spec, PARALLEL)
        assert stats.duplicates_detected == 0

    def test_timeline_monotonic_and_complete(self):
        spec = make_mesh(3, 3)
        _, stats = discover(spec, SERIAL_PACKET)
        times = stats.packet_timeline
        assert isinstance(times, array) and times.typecode == "d"
        assert list(times) == sorted(times)
        assert len(times) == stats.completions_received
        assert times[-1] == stats.finished_at


class TestOrderingInvariants:
    def test_serial_packet_has_one_outstanding_request(self):
        """The defining property of the ASI-SIG algorithm."""
        spec = make_mesh(3, 3)
        setup = build_simulation(spec, algorithm=SERIAL_PACKET,
                                 auto_start=False)
        fm = setup.fm

        max_pending = 0
        original = fm.send_request

        def counting_send(*args, **kwargs):
            nonlocal max_pending
            tag = original(*args, **kwargs)
            if fm.is_discovering:  # exclude post-discovery route writes
                max_pending = max(max_pending, len(fm.engine.pending))
            return tag

        fm.send_request = counting_send
        fm.start_discovery()
        run_until_ready(setup)
        assert max_pending == 1

    def test_serial_device_bounded_by_port_count(self):
        spec = make_mesh(3, 3)
        setup = build_simulation(spec, algorithm=SERIAL_DEVICE,
                                 auto_start=False)
        fm = setup.fm
        max_pending = 0
        original = fm.send_request

        def counting_send(*args, **kwargs):
            nonlocal max_pending
            tag = original(*args, **kwargs)
            if fm.is_discovering:  # exclude post-discovery route writes
                max_pending = max(max_pending, len(fm.engine.pending))
            return tag

        fm.send_request = counting_send
        fm.start_discovery()
        run_until_ready(setup)
        assert 1 < max_pending <= 16

    def test_parallel_exceeds_serial_device_concurrency(self):
        spec = make_mesh(4, 4)
        pendings = {}
        for algorithm in (SERIAL_DEVICE, PARALLEL):
            setup = build_simulation(spec, algorithm=algorithm,
                                     auto_start=False)
            fm = setup.fm
            max_pending = 0
            original = fm.send_request

            def counting_send(*args, __orig=original, __fm=fm, **kwargs):
                nonlocal max_pending
                tag = __orig(*args, **kwargs)
                if __fm.is_discovering:
                    max_pending = max(max_pending, len(__fm.engine.pending))
                return tag

            fm.send_request = counting_send
            fm.start_discovery()
            run_until_ready(setup)
            pendings[algorithm] = max_pending
        assert pendings[PARALLEL] > pendings[SERIAL_DEVICE]

    def test_serial_packet_is_breadth_first(self):
        """Devices complete in non-decreasing distance from the FM."""
        spec = make_mesh(3, 3)
        setup = build_simulation(spec, algorithm=SERIAL_PACKET,
                                 auto_start=False)
        order = []
        db = setup.fm.database
        original = db.add_device

        def tracking_add(record):
            order.append(record.dsn)
            return original(record)

        db.add_device = tracking_add
        setup.fm.start_discovery()
        run_until_ready(setup)

        dist = hop_distances(setup.fabric, setup.fm.endpoint.name)
        dsn_dist = {
            setup.fabric.device(name).dsn: d for name, d in dist.items()
        }
        distances = [dsn_dist[dsn] for dsn in order]
        assert distances == sorted(distances)


class TestPerformanceShape:
    """The paper's headline qualitative results, at test scale."""

    def test_parallel_beats_serial_device_beats_serial_packet(self):
        spec = make_mesh(3, 3)
        times = {}
        for algorithm in ALL_ALGOS:
            _, stats = discover(spec, algorithm)
            times[algorithm] = stats.discovery_time
        assert times[PARALLEL] < times[SERIAL_DEVICE] < times[SERIAL_PACKET]

    def test_improvement_grows_with_size(self):
        """Fig. 6: "this improvement is scalable"."""
        gaps = []
        for dim in (3, 4):
            spec = make_mesh(dim, dim)
            t = {}
            for algorithm in (SERIAL_PACKET, PARALLEL):
                _, stats = discover(spec, algorithm)
                t[algorithm] = stats.discovery_time
            gaps.append(t[SERIAL_PACKET] - t[PARALLEL])
        assert gaps[1] > gaps[0]

    def test_fig7a_slopes(self):
        """Serial Packet and Parallel timelines are near-linear; the
        Parallel slope (time per packet) is smaller."""
        import numpy as np

        spec = make_mesh(3, 3)
        slopes = {}
        residuals = {}
        for algorithm in (SERIAL_PACKET, PARALLEL):
            _, stats = discover(spec, algorithm)
            ys = np.array(stats.packet_timeline, float)
            xs = np.arange(1, len(ys) + 1, dtype=float)
            coeffs, res, *_ = np.polyfit(xs, ys, 1, full=True)
            slopes[algorithm] = coeffs[0]
            # Coefficient of determination of the linear fit.
            ss_tot = float(((ys - ys.mean()) ** 2).sum())
            residuals[algorithm] = 1 - float(res[0]) / ss_tot
        assert slopes[PARALLEL] < slopes[SERIAL_PACKET]
        assert residuals[SERIAL_PACKET] > 0.99  # constant slope
        assert residuals[PARALLEL] > 0.99

    def test_fm_factor_scales_all_algorithms(self):
        """Fig. 8(a): a faster FM shortens discovery for everyone."""
        spec = make_mesh(3, 3)
        for algorithm in ALL_ALGOS:
            base_timing = ProcessingTimeModel()
            fast_timing = ProcessingTimeModel(fm_factor=4)
            _, slow = discover(spec, algorithm, timing=base_timing)
            _, fast = discover(spec, algorithm, timing=fast_timing)
            assert fast.discovery_time < slow.discovery_time

    def test_device_factor_affects_only_serial(self):
        """Fig. 8(b): slowing devices (factor 0.5) hurts the serial
        algorithms but not Parallel (device time is overlapped)."""
        spec = make_mesh(3, 3)
        results = {}
        for algorithm in ALL_ALGOS:
            _, normal = discover(spec, algorithm,
                                 timing=ProcessingTimeModel())
            _, slowdev = discover(
                spec, algorithm,
                timing=ProcessingTimeModel(device_factor=0.5),
            )
            results[algorithm] = (normal.discovery_time,
                                  slowdev.discovery_time)
        # Serial algorithms get measurably slower.
        for algorithm in (SERIAL_PACKET, SERIAL_DEVICE):
            normal, slow = results[algorithm]
            assert slow > normal * 1.02
        # Parallel barely moves.
        normal, slow = results[PARALLEL]
        assert slow < normal * 1.02


class TestRediscovery:
    def test_rediscovery_discards_previous_information(self):
        setup, _ = discover(make_mesh(3, 3), PARALLEL)
        first_devices = set(r.dsn for r in setup.fm.database.devices())
        setup.fabric.remove_device("sw_2_2")
        from repro.experiments.runner import run_until_discovery_count

        run_until_discovery_count(setup, 2)
        second_devices = set(r.dsn for r in setup.fm.database.devices())
        removed_dsn = setup.fabric.device("sw_2_2").dsn
        ep_dsn = setup.fabric.device("ep_2_2").dsn
        assert removed_dsn in first_devices
        assert removed_dsn not in second_devices
        assert ep_dsn not in second_devices  # unreachable endpoint too

    def test_start_discovery_while_running_rejected(self):
        setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL,
                                 auto_start=False)
        setup.fm.start_discovery()
        with pytest.raises(RuntimeError, match="in progress"):
            setup.fm.start_discovery()

    def test_force_restart_allowed(self):
        setup = build_simulation(make_mesh(3, 3), algorithm=PARALLEL,
                                 auto_start=False)
        setup.fm.start_discovery()
        setup.env.run(until=0.5e-3)
        setup.fm.start_discovery(force=True)
        run_until_ready(setup)
        assert database_matches_fabric(setup)


class TestParallelWindow:
    """The optional bound on Parallel's outstanding requests."""

    def test_window_limits_concurrency(self):
        spec = make_mesh(3, 3)
        setup = build_simulation(spec, algorithm=PARALLEL,
                                 auto_start=False, parallel_window=4)
        fm = setup.fm
        max_pending = 0
        original = fm.send_request

        def counting_send(*args, **kwargs):
            nonlocal max_pending
            tag = original(*args, **kwargs)
            if fm.is_discovering:
                max_pending = max(max_pending, len(fm.engine.pending))
            return tag

        fm.send_request = counting_send
        fm.start_discovery()
        run_until_ready(setup)
        assert max_pending <= 4
        assert database_matches_fabric(setup)

    def test_window_one_behaves_like_serial_packet(self):
        spec = make_mesh(3, 3)
        windowed = build_simulation(spec, algorithm=PARALLEL,
                                    auto_start=False, parallel_window=1)
        windowed.fm.start_discovery()
        w_stats = run_until_ready(windowed)
        serial = build_simulation(spec, algorithm=SERIAL_PACKET,
                                  auto_start=False)
        serial.fm.start_discovery()
        s_stats = run_until_ready(serial)
        # Same packet count; times differ only by the per-packet FM
        # cost difference between the two implementations.
        assert w_stats.requests_sent == s_stats.requests_sent
        per_pkt_w = w_stats.discovery_time / w_stats.requests_sent
        per_pkt_s = s_stats.discovery_time / s_stats.requests_sent
        fm_gap = (serial.fm.timing.fm_time(SERIAL_PACKET, 9)
                  - windowed.fm.timing.fm_time(PARALLEL, 9))
        assert per_pkt_s - per_pkt_w == pytest.approx(fm_gap, rel=0.15)

    def test_invalid_window_rejected(self):
        setup = build_simulation(make_mesh(2, 2), algorithm=PARALLEL,
                                 auto_start=False, parallel_window=0)
        with pytest.raises(ValueError, match="window"):
            setup.fm.start_discovery()

    def test_window_still_discovers_exactly(self):
        for window in (2, 7):
            setup = build_simulation(make_torus(3, 3), algorithm=PARALLEL,
                                     auto_start=False,
                                     parallel_window=window)
            setup.fm.start_discovery()
            run_until_ready(setup)
            assert database_matches_fabric(setup), window
