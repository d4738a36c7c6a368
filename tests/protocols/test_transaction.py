"""Tests for the retrying PI-4 transaction engine and its policy."""

import pytest

from repro.fabric import Fabric
from repro.sim.monitor import Counter
from repro.manager.timing import PARALLEL, ProcessingTimeModel
from repro.protocols import (
    ManagementEntity,
    TimeoutPolicy,
    TransactionEngine,
    pi4,
)
from repro.protocols.transaction import DEFAULT_TIMEOUT
from repro.fabric.params import DEFAULT_PARAMS
from repro.routing.turnpool import Hop, build_turn_pool
from repro.sim import Environment


class StubEntity:
    """Records transmissions; nothing ever completes."""

    def __init__(self):
        self.sent = []
        self.tags = []

    def send_pi4(self, message, turn_pool, turn_pointer, out_port=None,
                 tag=None):
        self.sent.append(message)
        self.tags.append(tag)
        return object()


def make_engine(env, **kwargs):
    entity = StubEntity()
    counters = Counter()
    engine = TransactionEngine(env, entity, counters, **kwargs)
    return engine, entity, counters


def request(tag=0):
    return pi4.ReadRequest(cap_id=0, offset=0, tag=tag, count=1)


class TestTagAllocation:
    def test_tags_are_unique_and_packed_not_copied(self):
        """The engine numbers each request and has it packed under
        that number; the caller's message travels as it was built —
        not copied, not written to."""
        env = Environment()
        engine, entity, _ = make_engine(env)
        pool = build_turn_pool([])
        results = []
        first, second = request(), request()
        t1 = engine.open(first, pool, 0, lambda c, ctx: results.append(c))
        t2 = engine.open(second, pool, 0, lambda c, ctx: results.append(c))
        assert t1 != t2
        assert entity.tags == [t1, t2]
        assert entity.sent[0] is first and entity.sent[1] is second
        assert first.tag == second.tag == 0

    def test_salted_engines_use_disjoint_tag_spaces(self):
        env = Environment()
        a, _, _ = make_engine(env, tag_salt=1)
        b, _, _ = make_engine(env, tag_salt=2)
        pool = build_turn_pool([])
        tags_a = {a.open(request(), pool, 0, lambda c, x: None)
                  for _ in range(50)}
        tags_b = {b.open(request(), pool, 0, lambda c, x: None)
                  for _ in range(50)}
        assert not tags_a & tags_b


class TestRetryBehaviour:
    def test_retries_then_gives_up_with_none(self):
        env = Environment()
        engine, entity, counters = make_engine(env, max_retries=3)
        results = []
        engine.open(request(), build_turn_pool([]), 0,
                    lambda c, ctx: results.append((c, ctx)), ctx="x")
        env.run()
        assert results == [(None, "x")]
        assert len(entity.sent) == 4  # original + 3 retries
        assert counters["requests_sent"] == 4
        assert counters["retries"] == 3
        assert counters["timeouts"] == 1
        assert not engine.pending

    def test_explicit_timeout_keeps_fixed_cadence(self):
        env = Environment()
        engine, entity, _ = make_engine(env, max_retries=2)
        times = []
        engine.on_transmit = lambda entry, pkt: times.append(env.now)
        engine.open(request(), build_turn_pool([]), 0,
                    lambda c, ctx: None, timeout=1e-4)
        env.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == pytest.approx([1e-4, 1e-4])

    def test_default_requests_back_off_exponentially(self):
        env = Environment()
        engine, entity, _ = make_engine(env, max_retries=2, backoff=2.0)
        times = []
        engine.on_transmit = lambda entry, pkt: times.append(env.now)
        engine.open(request(), build_turn_pool([]), 0, lambda c, ctx: None)
        env.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) == 2
        assert gaps[1] == pytest.approx(2.0 * gaps[0])

    def test_arrival_suppresses_pending_timeout(self):
        env = Environment()
        engine, entity, counters = make_engine(env, max_retries=3)
        tag = engine.open(request(), build_turn_pool([]), 0,
                          lambda c, ctx: None)
        engine.note_arrival(tag)
        env.run()
        # The completion is queued at the requester: no retries fire and
        # the transaction stays open for complete() to claim.
        assert counters["retries"] == 0
        assert tag in engine.pending

    def test_complete_matches_and_flags_stale(self):
        env = Environment()
        engine, entity, counters = make_engine(env)
        tag = engine.open(request(), build_turn_pool([]), 0,
                          lambda c, ctx: None)
        completion = pi4.ReadCompletion(cap_id=0, offset=0, tag=tag,
                                        data=(1,))
        entry = engine.complete(completion)
        assert entry is not None and entry.tag == tag
        assert counters["completions_received"] == 1
        # A duplicate delivery of the same completion is stale.
        assert engine.complete(completion) is None
        assert counters["stale_completions"] == 1

    def test_cancel_all_silences_timers(self):
        env = Environment()
        engine, entity, counters = make_engine(env, max_retries=3)
        results = []
        engine.open(request(), build_turn_pool([]), 0,
                    lambda c, ctx: results.append(c))
        engine.cancel_all()
        env.run()
        assert results == []
        assert counters["retries"] == 0


class TestTimeoutPolicy:
    def _policy(self, floor=DEFAULT_TIMEOUT):
        return TimeoutPolicy(DEFAULT_PARAMS, ProcessingTimeModel(),
                             PARALLEL, floor=floor)

    def test_floor_dominates_for_short_routes(self):
        policy = self._policy()
        assert policy.timeout_for(build_turn_pool([])) == DEFAULT_TIMEOUT

    def test_derived_timeout_grows_with_route_length(self):
        policy = self._policy(floor=0.0)
        short = policy.timeout_for(build_turn_pool([Hop(16, 0, 1)]))
        long = policy.timeout_for(
            build_turn_pool([Hop(16, 0, 1)] * 6)
        )
        assert long > short > 0.0
        # Five more switch hops, crossed twice, at the per-hop estimate
        # (64 bytes' cut-through latency), times the safety factor.
        per_hop = (DEFAULT_PARAMS.tx_time(64) + DEFAULT_PARAMS.routing_latency
                   + DEFAULT_PARAMS.propagation_delay)
        assert long - short == pytest.approx(8.0 * 2.0 * 5 * per_hop)
        assert policy.timeout_for(build_turn_pool([])) == pytest.approx(
            short - 8.0 * 2.0 * per_hop)

    def test_policy_never_lowers_below_floor(self):
        policy = self._policy(floor=10.0)
        assert policy.timeout_for(
            build_turn_pool([Hop(16, 0, 1)] * 6), known_devices=100
        ) == 10.0

    def test_the_policy_reads_its_timing_model_on_every_call(self):
        """Only what the (frozen) fabric parameters fix is computed
        once; slowed-down processing factors stretch the next timeout."""
        timing = ProcessingTimeModel()
        policy = TimeoutPolicy(DEFAULT_PARAMS, timing, PARALLEL, floor=0.0)
        pool = build_turn_pool([Hop(16, 0, 1)])
        before = policy.timeout_for(pool)
        timing.device_factor = 0.5
        assert policy.timeout_for(pool) == pytest.approx(
            before + 8.0 * timing.device_time)


@pytest.fixture
def rig():
    """ep -- sw with management entities, mirroring test_entity.py."""
    env = Environment()
    fabric = Fabric(env)
    fabric.add_endpoint("ep")
    fabric.add_switch("sw")
    fabric.connect("ep", 0, "sw", 3)
    entities = {
        name: ManagementEntity(dev) for name, dev in fabric.devices.items()
    }
    fabric.power_up()
    return env, fabric, entities


class Recorder:
    def __init__(self):
        self.packets = []

    def packet_cost(self, packet):
        return 0.0

    def note_packet_arrival(self, packet):
        pass

    def handle_management_packet(self, packet, port):
        self.packets.append(packet)

    def handle_local_event(self, event):
        pass


class TestResponderDuplicateSuppression:
    def test_duplicate_request_served_from_cache(self, rig):
        env, fabric, entities = rig
        manager = Recorder()
        entities["ep"].manager = manager
        req = pi4.ReadRequest(cap_id=0, offset=0, tag=77, count=1)
        entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
        env.run()
        entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
        env.run()
        # Both transmissions got a completion, the second from cache.
        assert len(manager.packets) == 2
        assert entities["sw"].stats["duplicate_requests"] == 1

    def test_duplicate_write_is_not_reexecuted(self, rig):
        from repro.capability import EVENT_ROUTE_CAP_ID
        from repro.capability.event_route import EventRouteCapability

        env, fabric, entities = rig
        manager = Recorder()
        entities["ep"].manager = manager
        values = tuple(EventRouteCapability.encode(0xBEEF, 12, 3))
        req = pi4.WriteRequest(cap_id=EVENT_ROUTE_CAP_ID, offset=0,
                               tag=31, data=values)
        entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
        env.run()
        cap = fabric.device("sw").config_space.capability(EVENT_ROUTE_CAP_ID)
        assert cap.get_route() == (0xBEEF, 12, 3)

        # The device's state moves on; a replayed copy of the same
        # request (same tag) must NOT clobber it.
        cap.set_route(0xCAFE, 7, 1)
        entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
        env.run()
        assert cap.get_route() == (0xCAFE, 7, 1)
        assert entities["sw"].stats["duplicate_requests"] == 1
        # The requester still receives a (cached) completion.
        assert len(manager.packets) == 2


class TestPi4DecodeError:
    def test_short_payload_raises_typed_error(self):
        with pytest.raises(pi4.Pi4DecodeError):
            pi4.decode(b"\x01")

    def test_unknown_message_type_raises_typed_error(self):
        req = pi4.ReadRequest(cap_id=0, offset=0, tag=1).pack()
        garbled = bytes([0xEE]) + req[1:]
        with pytest.raises(pi4.Pi4DecodeError):
            pi4.decode(garbled)

    def test_decode_error_is_a_pi4_error(self):
        assert issubclass(pi4.Pi4DecodeError, pi4.Pi4Error)
