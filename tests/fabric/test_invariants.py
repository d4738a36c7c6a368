"""Property tests on fabric-wide invariants under random workloads."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.runner import build_simulation, run_until_ready
from repro.fabric import Packet, PacketTracer
from repro.fabric.header import RouteHeader
from repro.fabric.packet import PI_APPLICATION, PI_DEVICE_MANAGEMENT
from repro.manager import PARALLEL
from repro.routing.paths import fabric_endpoint_routes
from repro.topology import make_irregular, make_mesh

COMMON = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    bursts=st.integers(1, 40),
    payload=st.integers(0, 512),
)
def test_credits_conserved_after_random_traffic(seed, bursts, payload):
    """After the fabric drains, every credit counter is full and every
    input buffer empty — no matter the traffic pattern."""
    import random

    rng = random.Random(seed)
    setup = build_simulation(make_mesh(2, 2), auto_start=False)
    routes = {
        ep.name: fabric_endpoint_routes(setup.fabric, ep.name)
        for ep in setup.fabric.endpoints()
    }
    sources = sorted(routes)
    for _ in range(bursts):
        src = rng.choice(sources)
        dst = rng.choice(sorted(routes[src]))
        pool, out_port = routes[src][dst]
        header = RouteHeader(pi=PI_APPLICATION, tc=rng.randrange(8),
                             turn_pointer=pool.bits, turn_pool=pool.pool)
        setup.fabric.device(src).inject(
            Packet(header=header, payload=bytes(payload)), out_port
        )
    setup.env.run()

    for device in setup.fabric.devices.values():
        for port in device.ports:
            for counter in port.credits:
                assert counter.available == counter.capacity, port.name
            assert all(u == 0 for u in port._rx_in_use), port.name
            assert port.queued_packets() == 0, port.name


@COMMON
@given(
    num_switches=st.integers(2, 7),
    extra_links=st.integers(0, 4),
    seed=st.integers(0, 1_000),
)
def test_traced_paths_match_database_routes(num_switches, extra_links, seed):
    """The path every discovery packet actually took (per the tracer)
    starts at the FM and matches hop counts implied by its route."""
    spec = make_irregular(num_switches, extra_links=extra_links, seed=seed)
    setup = build_simulation(spec, algorithm=PARALLEL, auto_start=False)
    tracer = PacketTracer(pi_filter={PI_DEVICE_MANAGEMENT},
                          limit=200_000).attach(setup.fabric)
    setup.fm.start_discovery()
    run_until_ready(setup)

    fm_name = setup.fm.endpoint.name
    injected = {
        e.packet_id for e in tracer.hops
        if e.kind == "inject" and e.device == fm_name
    }
    delivered = 0
    for packet_id in injected:
        path = tracer.path_of(packet_id)
        assert path[0] == fm_name, path
        # No device appears twice in a forward source route.
        assert len(path) == len(set(path)), path
        if len(path) > 1:
            delivered += 1
    assert delivered > 0


@COMMON
@given(
    num_switches=st.integers(2, 7),
    seed=st.integers(0, 1_000),
)
def test_no_packet_outlives_the_run(num_switches, seed):
    """When the simulation drains, every injected management packet
    was delivered or explicitly dropped — none vanish silently."""
    spec = make_irregular(num_switches, extra_links=1, seed=seed)
    setup = build_simulation(spec, algorithm=PARALLEL, auto_start=False)
    tracer = PacketTracer(pi_filter={PI_DEVICE_MANAGEMENT},
                          limit=500_000).attach(setup.fabric)
    setup.fm.start_discovery()
    run_until_ready(setup)
    setup.env.run()

    counts = tracer.counts()
    # Every wire injection ends in a delivery or a drop.  (Loopback
    # reads never touch the wire and do not appear in the trace.)
    assert counts["inject"] + counts["forward"] >= counts["rx"]
    assert counts["deliver"] + counts["drop"] >= counts["inject"]
    assert counts["drop"] == 0  # healthy fabric loses nothing
