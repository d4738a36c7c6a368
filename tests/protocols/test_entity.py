"""Integration tests for the per-device management entity."""

import pytest

from repro.capability import (
    BASELINE_CAP_ID,
    CLAIM_CAP_ID,
    EVENT_ROUTE_CAP_ID,
    GENERAL_INFO_DWORDS,
    ClaimCapability,
    decode_general_info,
)
from repro.fabric import Fabric
from repro.protocols import ManagementEntity, pi4, pi5
from repro.routing.turnpool import Hop, build_turn_pool
from repro.sim import Environment


class Recorder:
    """Minimal manager stub: records delivered packets."""

    def __init__(self, cost=0.0):
        self.cost = cost
        self.packets = []
        self.local_events = []

    def packet_cost(self, packet):
        return self.cost

    def note_packet_arrival(self, packet):
        pass

    def handle_management_packet(self, packet, port):
        self.packets.append(packet)

    def handle_local_event(self, event):
        self.local_events.append(event)


@pytest.fixture
def rig():
    """ep -- sw, with management entities everywhere."""
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


def test_read_request_gets_completion_with_data(rig):
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager

    pool = build_turn_pool([])  # not used: direct neighbour via 1 hop
    # Route ep -> sw: zero switch hops are needed to *reach* sw?  No:
    # the packet must terminate at sw, entering at sw port 3 with an
    # exhausted pool.
    req = pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=11,
                          count=GENERAL_INFO_DWORDS)
    entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0, out_port=0)
    env.run()

    assert len(manager.packets) == 1
    completion = pi4.decode(manager.packets[0].payload)
    assert isinstance(completion, pi4.ReadCompletion)
    assert completion.tag == 11
    info = decode_general_info(list(completion.data))
    assert info["dsn"] == fabric.device("sw").dsn
    assert info["nports"] == 16


def test_bad_read_gets_error_completion(rig):
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    req = pi4.ReadRequest(cap_id=0x7F, offset=0, tag=5)
    entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
    env.run()
    completion = pi4.decode(manager.packets[0].payload)
    assert isinstance(completion, pi4.ReadError)
    assert completion.tag == 5


def test_write_request_modifies_capability(rig):
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    values = tuple(
        __import__("repro.capability.event_route", fromlist=["EventRouteCapability"])
        .EventRouteCapability.encode(0xBEEF, 12, 3)
    )
    req = pi4.WriteRequest(cap_id=EVENT_ROUTE_CAP_ID, offset=0, tag=9,
                           data=values)
    entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
    env.run()
    completion = pi4.decode(manager.packets[0].payload)
    assert isinstance(completion, pi4.WriteCompletion)
    assert completion.status == pi4.STATUS_OK
    cap = fabric.device("sw").config_space.capability(EVENT_ROUTE_CAP_ID)
    assert cap.get_route() == (0xBEEF, 12, 3)


def test_a_losing_claim_write_completes_with_conflict(rig):
    """The second claim of a generation is answered ``STATUS_CONFLICT``
    and leaves the first in place: what ownership fencing's write phase
    reads as a lost race."""
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    for tag, owner in ((1, 0xA1), (2, 0xB2)):
        req = pi4.WriteRequest(cap_id=CLAIM_CAP_ID, offset=0, tag=tag,
                               data=tuple(ClaimCapability.encode(owner, 4)))
        entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
    env.run()
    statuses = [pi4.decode(p.payload).status for p in manager.packets]
    assert statuses == [pi4.STATUS_OK, pi4.STATUS_CONFLICT]
    cap = fabric.device("sw").config_space.capability(CLAIM_CAP_ID)
    assert cap.get_claim() == (0xA1, 4)
    stats = entities["sw"].stats
    assert (stats["writes_served"], stats["write_errors"]) == (1, 1)


def test_local_loopback_read(rig):
    """A zero-length route reads the FM's own endpoint locally."""
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    req = pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=1,
                          count=GENERAL_INFO_DWORDS)
    # out_port=None: loopback to the local device.
    packet = entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0,
                                     out_port=None)
    # The loopback must not have touched the wire.
    env.run()
    info = decode_general_info(
        list(pi4.decode(manager.packets[0].payload).data)
    )
    assert info["dsn"] == fabric.device("ep").dsn


def test_device_processing_time_is_charged(rig):
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    t_device = entities["sw"].device_time
    req = pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=1)
    entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
    env.run()
    # Round trip must cost at least the device processing time.
    assert env.now >= t_device


def test_backlog_is_served_serially_one_processing_time_each(rig):
    """Five requests arrive within a microsecond; the switch's entity
    serves them in order, one ``device_time`` apart, and an undecodable
    packet in the middle costs nothing and wedges nothing."""
    from repro.fabric.packet import (
        PI_DEVICE_MANAGEMENT, Packet, make_management_header,
    )

    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    served = []
    execute = entities["sw"]._execute_request

    def spy(port, message):
        served.append((env.now, message.tag))
        return execute(port, message)
    entities["sw"]._execute_request = spy

    for tag in (1, 2):
        entities["ep"].send_pi4(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=tag),
            turn_pool=0, turn_pointer=0)
    fabric.device("ep").inject(Packet(
        header=make_management_header(0, 0, pi=PI_DEVICE_MANAGEMENT),
        payload=b"\x01garbage",
    ))
    for tag in (3, 4):
        entities["ep"].send_pi4(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=tag),
            turn_pool=0, turn_pointer=0)
    env.run()

    assert [tag for _t, tag in served] == [1, 2, 3, 4]
    t_device = entities["sw"].device_time
    gaps = [b - a for (a, _), (b, _) in zip(served, served[1:])]
    assert gaps == pytest.approx([t_device] * 3)
    assert entities["sw"].stats["pi4_decode_errors"] == 1
    assert entities["sw"].stats["rx_mgmt_packets"] == 5
    assert [pi4.decode(p.payload).tag for p in manager.packets] == \
        [1, 2, 3, 4]
    assert not entities["sw"]._working and not entities["sw"]._backlog


def test_processing_factor_speeds_up_device():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_endpoint("ep")
    dev = fabric.devices["ep"]
    fast = ManagementEntity(dev, processing_time=4e-6, processing_factor=4)
    assert fast.device_time == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        ManagementEntity(dev, processing_factor=0)


def test_pi5_emitted_along_programmed_event_route(rig):
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager

    # Program sw's event route: one backward-ish forward route sw->ep
    # (single hop through... sw itself is the reporter, so the route is
    # from sw out of port 3 with zero further turns).
    cap = fabric.device("sw").config_space.capability(EVENT_ROUTE_CAP_ID)
    cap.set_route(turn_pool=0, turn_pointer=0, out_port=3)

    # Cause a port-state change at sw by failing an unrelated link:
    # first wire a second endpoint to sw.
    fabric.add_endpoint("ep2")
    ManagementEntity(fabric.device("ep2"))
    fabric.connect("ep2", 0, "sw", 5)
    fabric.power_up()
    env.run()
    manager.packets.clear()

    fabric.fail_link("ep2", "sw")
    env.run()

    events = [pi5.decode(p.payload) for p in manager.packets
              if p.header.pi == 5]
    assert len(events) == 1
    assert events[0].reporter_dsn == fabric.device("sw").dsn
    assert events[0].port == 5
    assert events[0].up is False


def test_pi5_without_route_is_counted_not_sent(rig):
    env, fabric, entities = rig
    fabric.add_endpoint("ep2")
    ManagementEntity(fabric.device("ep2"))
    fabric.connect("ep2", 0, "sw", 5)
    fabric.power_up()
    env.run()
    fabric.fail_link("ep2", "sw")
    env.run()
    assert entities["sw"].stats["events_unroutable"] >= 1


def test_fm_endpoint_sees_its_own_port_events(rig):
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    fabric.fail_link("ep", "sw")
    env.run()
    assert len(manager.local_events) == 1
    assert manager.local_events[0].up is False


def test_manager_cost_serializes_completions(rig):
    """FM processing time is charged per completion, serially."""
    env, fabric, entities = rig
    manager = Recorder(cost=10e-6)
    entities["ep"].manager = manager

    for tag in range(3):
        req = pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=tag)
        entities["ep"].send_pi4(req, turn_pool=0, turn_pointer=0)
    env.run()
    assert len(manager.packets) == 3
    # Three completions at 10 us each must take at least 30 us.
    assert env.now >= 30e-6


class TestEntityEdgeCases:
    def test_undecodable_pi4_payload_counted(self, rig):
        """Garbage PI-4 payloads are counted, not crashed on."""
        env, fabric, entities = rig
        from repro.fabric.packet import Packet, make_management_header

        header = make_management_header(0, 0, pi=4)
        fabric.device("ep").inject(Packet(header=header, payload=b"\x01"))
        env.run()
        assert entities["sw"].stats["pi4_decode_errors"] == 1

    def test_unknown_pi_counted(self, rig):
        """No PI the entity does not serve has a handler — PI 0 included,
        since nothing in the model speaks the multicast protocol."""
        env, fabric, entities = rig
        from repro.fabric.header import RouteHeader
        from repro.fabric.packet import Packet

        for count, pi in enumerate((0x77, 0), start=1):
            header = RouteHeader(pi=pi, tc=7, ts=1, turn_pointer=0)
            fabric.device("ep").inject(Packet(header=header, payload=b"?"))
            env.run()
            assert entities["sw"].stats["unknown_pi"] == count

    def test_completion_without_manager_counted(self, rig):
        env, fabric, entities = rig
        from repro.fabric.packet import Packet, make_management_header

        # A completion arriving at a device with no attached manager.
        header = make_management_header(0, 0, pi=4)
        payload = pi4.ReadCompletion(cap_id=0, offset=0, tag=1,
                                     data=(1,)).pack()
        fabric.device("ep").inject(Packet(header=header, payload=payload))
        env.run()
        assert entities["sw"].stats["unexpected_completions"] == 1

    def test_app_packets_cost_nothing(self, rig):
        env, fabric, entities = rig
        from repro.fabric.header import RouteHeader
        from repro.fabric.packet import PI_APPLICATION, Packet

        got = []
        entities["sw"].app_handler = lambda packet, port: got.append(
            env.now
        )
        header = RouteHeader(pi=PI_APPLICATION, tc=0, turn_pointer=0)
        t0 = env.now
        fabric.device("ep").inject(Packet(header=header, payload=b"data"))
        env.run()
        assert len(got) == 1
        # Delivered after wire time only — far below the 2.5 us the
        # entity charges for management packets.
        assert got[0] - t0 < 1e-6
        assert entities["sw"].stats["app_packets"] == 1


# -- direct serve: a packet that finds the entity free skips the backlog ----

def test_a_request_at_an_idle_entity_creates_no_backlog(rig):
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    for tag in (1, 2):  # one at a time: the second finds it idle again
        entities["ep"].send_pi4(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=tag),
            turn_pool=0, turn_pointer=0)
        env.run()
    assert [pi4.decode(p.payload).tag for p in manager.packets] == [1, 2]
    for entity in entities.values():
        assert entity._backlog is None and not entity._working
    assert entities["sw"].stats["rx_mgmt_packets"] == 2
    assert entities["sw"].stats["reads_served"] == 2


def test_loopback_reply_queues_behind_a_same_instant_arrival(rig):
    """Two local reads in one handler.  The first is served on the
    spot; the second waits its turn, and the first's loop-back reply —
    created while it is dispatched — takes its place behind the second
    in a backlog that did not exist when the dispatch began."""
    env, fabric, entities = rig
    entity = entities["ep"]
    manager = Recorder()
    entity.manager = manager
    served = []
    execute = entity._execute_request

    def spy(port, message):
        served.append((env.now, message.tag, len(entity._backlog or ())))
        return execute(port, message)
    entity._execute_request = spy

    def send_both(_event):
        for tag in (1, 2):
            entity.send_pi4(
                pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=tag),
                turn_pool=0, turn_pointer=0, out_port=None)
        # Inside dispatch with nothing else due: request 1 holds the
        # slot (its cost timer runs), request 2 is the whole backlog.
        assert entity._working and len(entity._backlog) == 1
    env.schedule_callback(1e-6, send_both)
    env.run()
    t_device = entity.device_time
    assert served == [(1e-6 + t_device, 1, 1),
                      ((1e-6 + t_device) + t_device, 2, 1)]
    assert [pi4.decode(p.payload).tag for p in manager.packets] == [1, 2]
    assert entity.stats["rx_mgmt_packets"] == 4
    assert not entity._working and not entity._backlog


def test_an_arrival_outside_dispatch_waits_for_the_run(rig):
    env, fabric, entities = rig
    entity = entities["ep"]
    entity.manager = Recorder()
    entity.send_pi4(
        pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=1),
        turn_pool=0, turn_pointer=0, out_port=None)
    assert entity._working and len(entity._backlog) == 1
    assert entity._current is None  # decoded on arrival, not yet served
    assert entity._backlog[0][0].message.tag == 1
    env.run()
    assert len(entity.manager.packets) == 1


def test_served_replies_are_kept_packed(rig):
    """The duplicate-suppression cache holds what a resend needs — the
    completion's bytes — and a duplicate gets the same bytes again
    without the access being executed twice."""
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    request = pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=7,
                              count=GENERAL_INFO_DWORDS)
    for _ in range(2):
        entities["ep"].send_pi4(request, turn_pool=0, turn_pointer=0)
        env.run()
    sw = entities["sw"]
    assert list(sw._served_replies) == [7]
    assert type(sw._served_replies[7]) is bytes
    first, second = (p.payload for p in manager.packets)
    assert first == second == sw._served_replies[7]
    assert pi4.decode(first).tag == 7
    assert sw.stats["duplicate_requests"] == 1
    assert sw.stats["reads_served"] == 1


# -- one decode per packet; the error paths keep their counters --------------

def decode_attempts(monkeypatch):
    """The payloads ``pi4.decode`` is asked to decode, in order."""
    attempts = []
    decode = pi4.decode

    def counted(payload):
        attempts.append(payload)
        return decode(payload)
    monkeypatch.setattr(pi4, "decode", counted)
    return attempts


def test_a_packet_is_decoded_once_and_carries_its_message(rig, monkeypatch):
    """Request at the device, completion at the requester: one decode
    each, where the packet reaches the entity, and whoever is handed
    the packet later finds the message on it."""
    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    attempts = decode_attempts(monkeypatch)
    request = pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=21,
                              count=GENERAL_INFO_DWORDS)
    sent = entities["ep"].send_pi4(request, turn_pool=0, turn_pointer=0)
    assert sent.message is None  # the sender's object does not travel
    env.run()
    (completion,) = manager.packets
    assert attempts == [request.pack(), completion.payload]
    assert sent.message == request and sent.message is not request
    assert isinstance(completion.message, pi4.ReadCompletion)
    assert completion.message == pi4.decode(completion.payload)


def test_garbage_at_a_device_is_attempted_once_and_counted_once(
        rig, monkeypatch):
    from repro.fabric.packet import Packet, make_management_header

    env, fabric, entities = rig
    manager = Recorder()
    entities["ep"].manager = manager
    attempts = decode_attempts(monkeypatch)
    garbage = b"\x01garbage"
    packet = Packet(header=make_management_header(0, 0, pi=4),
                    payload=garbage)
    fabric.device("ep").inject(packet)
    env.run()  # raises nothing
    sw = entities["sw"]
    assert attempts == [garbage]
    assert packet.message is None
    assert sw.stats["pi4_decode_errors"] == 1
    assert sw.stats["rx_mgmt_packets"] == 1
    assert sw.stats["reads_served"] == 0 and not manager.packets
    assert sw._current is None and not sw._working


def test_a_link_replay_is_decoded_on_its_own_and_served_from_the_cache():
    """Every transmission duplicated by the link (``_clone_for_replay``):
    the device sees the request twice, decodes each copy for itself,
    executes the access once and answers the second from the served
    replies."""
    from repro.fabric import FabricParams

    env = Environment()
    # As good as always: the rate must stay below 1.
    fabric = Fabric(env, FabricParams(duplicate_rate=1 - 1e-9))
    fabric.add_endpoint("ep")
    fabric.add_switch("sw")
    fabric.connect("ep", 0, "sw", 3)
    entities = {name: ManagementEntity(dev)
                for name, dev in fabric.devices.items()}
    fabric.power_up()
    manager = Recorder()
    entities["ep"].manager = manager
    seen = []
    serve = entities["sw"]._serve_request

    def spy(packet, port):
        seen.append(packet)
        serve(packet, port)
    entities["sw"]._serve_request = spy
    entities["ep"].send_pi4(
        pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=7),
        turn_pool=0, turn_pointer=0)
    env.run()
    sw = entities["sw"]
    assert fabric.device("ep").ports[0].stats["tx_replays"] == 1
    original, replay = seen
    assert original is not replay and original.payload == replay.payload
    assert original.message == replay.message
    assert original.message is not replay.message
    assert sw.stats["reads_served"] == 1
    assert sw.stats["duplicate_requests"] == 1
    assert sw.stats["pi4_decode_errors"] == 0
    # Two answers, each replayed on its way back: four equal payloads.
    assert len(manager.packets) == 4
    assert {p.payload for p in manager.packets} == {sw._served_replies[7]}


def test_served_replies_evict_least_recently_used(rig):
    """The cache is a plain dict kept in LRU order.  A duplicate hit
    moves its tag to the end, so tag 1 — served first — survives the
    arrival of tag 4 and tag 2 is evicted instead.  The snapshots,
    evictions and counts are those of the ``OrderedDict`` form
    (``move_to_end`` on a hit, ``popitem(last=False)`` on overflow)
    this replaced."""
    env, fabric, entities = rig
    entities["ep"].manager = Recorder()
    sw = entities["sw"]
    sw.served_cache_limit = 3
    snapshots = []
    for tag in (1, 2, 3, 1, 4, 2, 1, 3):
        entities["ep"].send_pi4(
            pi4.ReadRequest(cap_id=BASELINE_CAP_ID, offset=0, tag=tag),
            turn_pool=0, turn_pointer=0)
        env.run()
        snapshots.append(list(sw._served_replies))
    assert type(sw._served_replies) is dict
    assert snapshots == [
        [1], [1, 2], [1, 2, 3], [2, 3, 1], [3, 1, 4], [1, 4, 2],
        [4, 2, 1], [2, 1, 3],
    ]
    evicted = [(set(before) - set(after)).pop()
               for before, after in zip(snapshots, snapshots[1:])
               if set(before) - set(after)]
    assert evicted == [2, 3, 4]
    assert sw.stats["duplicate_requests"] == 2
    assert sw.stats["reads_served"] == 6
