"""Tests for the retrying PI-4 transaction engine and its policy."""

from dataclasses import replace
from itertools import count

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
                 transaction=None):
        self.sent.append(message)
        self.tags.append(transaction.tag)
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


class Requester:
    """A manager that hands completions to its own engine, as the fabric
    manager does (arrival clears the timer, processing closes it)."""

    def __init__(self, env, entity, tag_salt=0):
        self.engine = TransactionEngine(env, entity, Counter(),
                                        tag_salt=tag_salt)
        entity.manager = self

    def packet_cost(self, packet):
        return 0.0

    def note_packet_arrival(self, packet):
        self.engine.note_arrival(packet.message.tag)

    def handle_management_packet(self, packet, port):
        entry = self.engine.complete(packet.message)
        if entry is not None:
            entry.callback(packet.message, entry.ctx)

    def handle_local_event(self, event):
        pass

    def open(self, message, **options):
        """Send ``message`` to the device next to the endpoint; the
        list its completion (or ``None``) will be appended to."""
        answers = []
        self.engine.open(message, build_turn_pool([]), 0,
                         lambda reply, ctx: answers.append(reply), **options)
        return answers


def pair(params=DEFAULT_PARAMS, endpoints=("ep",)):
    """Endpoints around one switch ``sw``, with management entities."""
    env = Environment()
    fabric = Fabric(env, params)
    fabric.add_switch("sw")
    for index, name in enumerate(endpoints):
        fabric.add_endpoint(name)
        fabric.connect(name, 0, "sw", index)
    entities = {name: ManagementEntity(dev)
                for name, dev in fabric.devices.items()}
    fabric.power_up()
    return env, fabric, entities


def event_route_write(route):
    from repro.capability import EVENT_ROUTE_CAP_ID
    from repro.capability.event_route import EventRouteCapability

    return pi4.WriteRequest(cap_id=EVENT_ROUTE_CAP_ID, offset=0, tag=0,
                            data=tuple(EventRouteCapability.encode(*route)))


def event_route(fabric):
    from repro.capability import EVENT_ROUTE_CAP_ID

    return fabric.device("sw").config_space.capability(EVENT_ROUTE_CAP_ID)


def route_dwords(cap):
    """The event-route capability's dwords as they stand."""
    from repro.capability.event_route import EventRouteCapability

    return tuple(EventRouteCapability.encode(*cap.get_route()))


class TestServedCompletionLifetime:
    """A device keeps a completion only while a copy of its request can
    still arrive: once the transaction has closed and every copy sent
    has been answered, the completion goes."""

    def test_an_answered_and_closed_transaction_leaves_nothing(self):
        env, fabric, entities = pair()
        requester = Requester(env, entities["ep"])
        answers = requester.open(pi4.ReadRequest(cap_id=0, offset=0, tag=0))
        env.run()
        assert isinstance(answers[0], pi4.ReadCompletion)
        assert entities["sw"]._served_replies == {}
        assert entities["sw"].stats["reads_served"] == 1

    def test_a_retry_on_the_wire_at_close_is_answered_from_the_store(self):
        """The first completion comes back after the retry left: the
        requester closes the transaction while the retry is still on
        the long link.  The retry is a duplicate — answered from the
        store, the write not executed again — and then nothing is
        left to keep."""
        env, fabric, entities = pair(
            replace(DEFAULT_PARAMS, propagation_delay=5e-6))
        requester = Requester(env, entities["ep"])
        sw = entities["sw"]
        seen = []
        serve = sw._serve_request

        def spy(packet, port):
            tag = packet.message.tag
            seen.append((tag not in requester.engine.pending,
                         tag in sw._served_replies))
            serve(packet, port)
        sw._serve_request = spy
        cap = event_route(fabric)
        # Round trip ≈ 2 × 5 µs of wire + 2.5 µs at the switch.
        answers = requester.open(event_route_write((0xBEEF, 12, 3)),
                                 retries=1, timeout=10e-6)
        env.run(until=13e-6)
        assert len(answers) == 1 and answers[0].status == pi4.STATUS_OK
        cap.set_route(0xCAFE, 7, 1)  # the device moves on
        env.run()
        assert seen == [(False, False), (True, True)]
        assert sw.stats["duplicate_requests"] == 1
        assert sw.stats["writes_served"] == 1
        assert cap.get_route() == (0xCAFE, 7, 1)
        counters = requester.engine.counters
        assert (counters["retries"], counters["completions_received"],
                counters["stale_completions"]) == (1, 1, 1)
        assert sw._served_replies == {}

    def test_a_copy_that_never_arrives_keeps_the_completion(self):
        """The retry is lost before the device sees it: the device
        cannot tell, so the completion stays under the LRU rule."""
        env, fabric, entities = pair(
            replace(DEFAULT_PARAMS, propagation_delay=5e-6))
        requester = Requester(env, entities["ep"])
        sw = entities["sw"]
        serve = sw._serve_request
        copies = []

        def lose_the_second(packet, port):
            copies.append(packet)
            if len(copies) == 1:
                serve(packet, port)
        sw._serve_request = lose_the_second
        answers = requester.open(pi4.ReadRequest(cap_id=0, offset=0, tag=0),
                                 retries=1, timeout=10e-6)
        env.run()
        assert len(copies) == 2 and len(answers) == 1
        assert list(sw._served_replies) == [copies[0].message.tag]

    def test_a_fabric_that_replays_packets_keeps_today_s_rule(self):
        """A link replay is a copy the requester never counted, so the
        requests carry no transaction and the store keeps its LRU."""
        env, fabric, entities = pair(
            replace(DEFAULT_PARAMS, duplicate_rate=1 - 1e-9))
        requester = Requester(env, entities["ep"])
        answers = requester.open(pi4.ReadRequest(cap_id=0, offset=0, tag=0))
        env.run()
        sw = entities["sw"]
        assert len(answers) == 1
        assert sw.stats["duplicate_requests"] == 1
        assert list(sw._served_replies) == [answers[0].tag]

    def test_a_cancelled_transaction_goes_once_its_copy_is_answered(self):
        env, fabric, entities = pair()
        requester = Requester(env, entities["ep"])
        answers = requester.open(pi4.ReadRequest(cap_id=0, offset=0, tag=0))
        requester.engine.cancel_all()
        env.run()
        assert answers == []
        assert entities["sw"].stats["reads_served"] == 1
        assert entities["sw"]._served_replies == {}
        assert requester.engine.counters["stale_completions"] == 1


class TestTagReuse:
    """The 16-bit sequence under the salt: a requester that has sent
    65,536 requests numbers the next with the following salt's tags."""

    def test_a_reused_tag_runs_afresh_once_the_earlier_one_closed(self):
        env, fabric, entities = pair(endpoints=("ep0", "ep1"))
        first = Requester(env, entities["ep0"], tag_salt=1)
        second = Requester(env, entities["ep1"], tag_salt=2)
        cap = event_route(fabric)
        earlier = second.open(event_route_write((0xBEEF, 12, 3)))
        env.run()
        assert earlier[0].tag == (2 << 16) + 1
        cap.set_route(0xCAFE, 7, 1)

        first.engine._tags = count((1 << 16) + 65_537)
        read = pi4.ReadRequest(cap_id=cap.cap_id, offset=0, tag=0,
                               count=len(route_dwords(cap)))
        reused = first.open(read)
        env.run()
        (answer,) = reused
        assert answer.tag == earlier[0].tag
        assert isinstance(answer, pi4.ReadCompletion)  # not the write's
        assert answer.data == route_dwords(cap)
        sw = entities["sw"]
        assert sw.stats["duplicate_requests"] == 0
        assert (sw.stats["writes_served"], sw.stats["reads_served"]) == (1, 1)

