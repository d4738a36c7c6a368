"""Order-exactness of the port's elided events.

The transmit engine does not push its serialization-done timer while
nothing is queued, and a credit return to a sender that is not blocked
waits in a ledger instead of becoming an event.  Both must be invisible:
whatever can observe them sees exactly what the always-schedule chain
produced, same-instant ties included.  The expected orders and instants
below are those of the always-schedule chain (PR 11's tree).

The attach kick and the PI-4 retry timers are elided too; their cases
(:class:`TestAttachKicks`, :class:`TestRetryTimers`) run each rig both
ways — inside :func:`tests.reference.eager.eager`, which pushes every
kick and timer, and as ``src/`` stands — and compare.
"""

from contextlib import nullcontext
from types import SimpleNamespace

from repro.fabric import Fabric, FabricParams
from repro.protocols.transaction import TransactionEngine
from repro.routing.turnpool import Hop, build_turn_pool
from repro.sim import Counter, Environment
from tests.reference.eager import eager

from .test_port_flow import data_packet

#: ep0/ep2 -> sw -> ep1: the turn that leaves the switch on port 1 when
#: entering on port 0, and on port 2.
FROM_EP0 = build_turn_pool([Hop(16, 0, 1)])
FROM_EP2 = build_turn_pool([Hop(16, 2, 1)])


def star(params=None, sources=("ep0",)):
    """Source endpoints on switch ports 0, 2, ...; ``ep1`` on port 1."""
    env = Environment()
    fabric = Fabric(env, params or FabricParams())
    fabric.add_switch("sw")
    fabric.add_endpoint("ep1")
    fabric.connect("sw", 1, "ep1", 0)
    for name in sources:
        fabric.add_endpoint(name)
        fabric.connect(name, 0, "sw", int(name[2:]))
    fabric.power_up()
    return env, fabric


def log_transmissions(fabric, log):
    """Append ``(time, device, port, packet id)`` per transmission."""
    def hook(kind, device, port_index, packet, detail=None):
        if kind == "tx":
            log.append((device.env.now, device.name, port_index,
                        packet.pkt_id))
    for device in fabric.devices.values():
        device.trace_hook = hook


class TestSendLandingExactlyAtLaneFree:
    """A second packet queued at the very instant the lane frees.

    The done timer of the first transmission was elided; whether it has
    "already fired" at that instant depends on sequence numbers alone.
    """

    def _rig(self):
        env, fabric = star()
        ep0 = fabric.device("ep0")
        first, second = data_packet(FROM_EP0), data_packet(FROM_EP0)
        order = []

        def hook(kind, device, port_index, packet, detail=None):
            if kind == "tx" and device is ep0:
                order.append(("tx", packet.pkt_id, env.now))
        ep0.trace_hook = hook
        #: Transmission starts at t=0, so the lane frees at exactly the
        #: serialization time (0.0 + x is x).
        free_at = first.size_bytes() * 8.0 / fabric.params.data_rate

        def send_second(_event):
            order.append("send")
            ep0.inject(second)

        def note(label):
            return lambda _event: order.append(label)

        return env, ep0, first, second, order, free_at, send_second, note

    def test_sender_numbered_before_the_timer_waits_for_it(self):
        env, ep0, first, second, order, free_at, send_second, note = \
            self._rig()
        # Drawn before the first transmission starts: both rank ahead
        # of its done timer at the tie.
        env.schedule_callback(free_at, send_second)
        env.schedule_callback(free_at, note("early"))
        ep0.inject(first)

        def after_start(_event):
            # Runs at t=0 once the transmission has started, so what it
            # schedules ranks behind the done timer.
            assert ep0.ports[0]._free_at == free_at  # the tie is real
            env.schedule_callback(free_at, note("late"))
        env.schedule_callback(0.0, after_start)
        env.run()
        assert order == [
            ("tx", first.pkt_id, 0.0),
            "send", "early", ("tx", second.pkt_id, free_at), "late",
        ]

    def test_sender_numbered_after_the_timer_finds_the_lane_idle(self):
        env, ep0, first, second, order, free_at, send_second, note = \
            self._rig()
        ep0.inject(first)

        def after_start(_event):
            assert ep0.ports[0]._free_at == free_at  # the tie is real
            env.schedule_callback(free_at, send_second)
            env.schedule_callback(free_at, note("late"))
        env.schedule_callback(0.0, after_start)
        env.run()
        # The timer fired first and found nothing; the send then kicks
        # an idle lane, and the kick queues behind what is already due.
        assert order == [
            ("tx", first.pkt_id, 0.0),
            "send", "late", ("tx", second.pkt_id, free_at),
        ]


class TestCreditBlockedSender:
    def test_wakes_on_a_return_already_under_way(self):
        """The sender blocks while the return it needs is in flight."""
        params = FabricParams(rx_buffer_credits=4,
                              propagation_delay=400e-9)
        env, fabric = star(params)
        log = []
        log_transmissions(fabric, log)
        first, second = data_packet(FROM_EP0), data_packet(FROM_EP0)
        assert first.credit_units() == 4  # one packet fills the buffer
        fabric.device("ep0").inject(first)
        fabric.device("ep0").inject(second)
        env.run()

        when = {(name, port, pid): t for t, name, port, pid in log}
        released = when[("sw", 1, first.pkt_id)]  # leaves the sw buffer
        lane_free = params.tx_time(first.size_bytes())
        assert released < lane_free < released + params.propagation_delay
        assert when[("ep0", 0, second.pkt_id)] == \
            released + params.propagation_delay

    def test_transmits_at_exactly_release_plus_propagation(self):
        """Blocked first, released later — and so is the next hop."""
        params = FabricParams(rx_buffer_credits=4)
        # ep2 is wired first, so at t=0 its port transmits first and
        # its packet wins the switch egress.
        env, fabric = star(params, sources=("ep2", "ep0"))
        log = []
        log_transmissions(fabric, log)
        blocker = data_packet(FROM_EP2)
        first, second = data_packet(FROM_EP0), data_packet(FROM_EP0)
        assert first.credit_units() == 4
        # ep2's packet holds the switch egress and ep1's whole buffer;
        # ep0's first packet waits behind it in the switch, holding the
        # buffer ep0's second packet needs.
        fabric.device("ep2").inject(blocker)
        fabric.device("ep0").inject(first)
        fabric.device("ep0").inject(second)
        env.run()

        when = {(name, port, pid): t for t, name, port, pid in log}
        released = when[("sw", 1, first.pkt_id)]  # leaves the sw buffer
        lane_free = params.tx_time(first.size_bytes())
        assert released > lane_free  # credits, not the lane, gate it
        assert when[("ep0", 0, second.pkt_id)] == \
            released + params.propagation_delay
        # ... and the switch egress itself waited on ep1's return.
        assert fabric.device("ep1").stats["consumed"] == 3


class TestLinkFlapMidFlight:
    def test_ledger_and_counters_consistent(self):
        params = FabricParams(rx_buffer_credits=8)
        env, fabric = star(params)
        got = []
        fabric.device("ep1").local_handler = (
            lambda packet, port: got.append(packet.pkt_id)
        )
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        for _ in range(6):
            ep0.inject(data_packet(FROM_EP0))

        def flap(_event):
            # Mid-burst: packets queued, in flight and buffered, and
            # credit returns under way.
            assert port.queued_packets() > 0
            fabric.fail_link("ep0", "sw")
            assert port._ledger == [] and not port._blocked
            assert port.queued_packets() == 0
            for counter in port.credits:
                assert counter.available == counter.capacity
            fabric.restore_link("ep0", "sw")
        env.schedule_callback(2.5e-6, flap)
        env.run()
        delivered_before = len(got)
        assert 0 < delivered_before < 6

        late = [data_packet(FROM_EP0) for _ in range(6)]
        for packet in late:
            ep0.inject(packet)
        env.run()
        assert got[delivered_before:] == [p.pkt_id for p in late]
        for device in fabric.devices.values():
            for p in device.ports:
                for counter in p.credits:
                    assert counter.available == counter.capacity, p.name
                assert not p._ledger and not p._blocked, p.name
                assert all(u == 0 for u in p._rx_in_use), p.name


class TestIntrospectionIsInvisible:
    def _run(self, probe):
        params = FabricParams(rx_buffer_credits=6)
        env, fabric = star(params, sources=("ep0", "ep2"))
        log = []
        log_transmissions(fabric, log)
        for _ in range(12):
            fabric.device("ep0").inject(data_packet(FROM_EP0, 150))
            fabric.device("ep2").inject(data_packet(FROM_EP2, 250))

        def sampler():
            while True:
                for device in fabric.devices.values():
                    for port in device.ports:
                        port.vc_stats()
                        list(port.credits)
                yield env.timeout(37e-9)
        if probe:
            env.process(sampler())
        env.run(until=40e-6)
        first_id = min(pid for *_rest, pid in log)
        return [(t, name, port, pid - first_id)
                for t, name, port, pid in log]

    def test_probing_every_port_changes_nothing(self):
        quiet, probed = self._run(False), self._run(True)
        assert len(quiet) == 2 * 24  # every packet crossed two links
        assert probed == quiet

    def test_vc_stats_mid_run_matches_eager_credit_accounting(self):
        """A return that has arrived reads as arrived, applied or not."""
        env, fabric = star()
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        ep0.inject(data_packet(FROM_EP0))
        # The switch forwards the head ~0.15 us in and returns the
        # credits 5 ns later; ep0 has nothing more to send, so nothing
        # forces it to apply them.
        env.run(until=1e-6)
        assert port._ledger  # still ledgered ...
        row = port.vc_stats()[0]
        assert row["credits_available"] == row["credits_capacity"]


def log_port_events(fabric):
    """``(kind, device, port, time, detail, packet id)`` per enqueue
    and tx."""
    log = []

    def hook(kind, device, port_index, packet, detail=None):
        if kind in ("enqueue", "tx"):
            log.append((kind, device.name, port_index, device.env.now,
                        detail, packet.pkt_id))
    for device in fabric.devices.values():
        device.trace_hook = hook
    return log


class TestDirectTransmit:
    """A packet that meets a free lane with credits in hand, nothing
    queued and nothing else due at its instant is transmitted by
    ``send`` itself and never enters a queue.  That is the state in
    which the parent's chain — push, ``_wake``, inline kick — popped
    the packet it had just pushed, so every instant and order below is
    the parent's; what is new is that no deque is involved.
    """

    def test_enqueue_then_tx_at_the_same_instant_and_no_deque(self):
        env, fabric = star()
        log = log_port_events(fabric)
        ep0, sw = fabric.device("ep0"), fabric.device("sw")
        port = ep0.ports[0]
        packet = data_packet(FROM_EP0)
        queued_during = []
        fabric.device("ep1").local_handler = lambda p, port: None

        def send(_event):
            ep0.inject(packet)
            queued_during.append(port.queued_packets())
        env.schedule_callback(1e-6, send)
        env.run()
        forwarded = (1e-6 + port._head_latency) + fabric.params.routing_latency
        pid = packet.pkt_id
        assert log == [
            ("enqueue", "ep0", 0, 1e-6, "vc0", pid),
            ("tx", "ep0", 0, 1e-6, "vc=0", pid),
            ("enqueue", "sw", 1, forwarded, "vc0", pid),
            ("tx", "sw", 1, forwarded, "vc=0", pid),
        ]
        assert queued_during == [0]
        for sender in (port, sw.ports[1]):
            (vc,) = sender.credits
            assert vc.ordered is None and vc.bypass is None
            assert (sender.tx_queued, sender.tx_packets) == (1, 1)
            assert sender.stats["tx_queued"] == 1

    def test_reads_of_a_direct_transmission_in_flight(self):
        env, fabric = star()
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        packet = data_packet(FROM_EP0)
        env.schedule_callback(1e-6, lambda _event: ep0.inject(packet))
        env.run(until=1e-6 + 20e-9)  # the head is still on the wire
        row = port.vc_stats()[0]
        assert port.queued_packets() == 0 and row["tx_queued"] == 0
        assert row["credits_capacity"] - row["credits_available"] == \
            packet.credit_units()
        assert port.credits[0].in_use == packet.credit_units()
        assert port._tx_busy and port._done_seq >= 0  # done slot elided

    def test_credits_short_queues_blocks_and_leaves_on_the_credit_event(
            self):
        params = FabricParams(rx_buffer_credits=4,
                              propagation_delay=400e-9)
        env, fabric = star(params)
        log = log_port_events(fabric)
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        first, second = data_packet(FROM_EP0), data_packet(FROM_EP0)
        assert first.credit_units() == 4  # one packet fills the buffer
        lane_free = 1e-6 + params.tx_time(first.size_bytes())
        seen = []

        def send_second(_event):
            # Lane free, nothing queued, nothing else due — but the one
            # return that matters is still 0.2 us away.
            assert port._ledger and not port.queued_packets()
            ep0.inject(second)
            seen.append((port.queued_packets(), port._blocked,
                         list(port._ledger)))
        env.schedule_callback(1e-6, lambda _event: ep0.inject(first))
        env.schedule_callback(lane_free + 10e-9, send_second)
        env.run()
        assert seen == [(1, True, [])]  # queued; returns became events
        when = {(kind, name, pid): t for kind, name, _p, t, _d, pid in log}
        released = when[("tx", "sw", first.pkt_id)]
        assert when[("enqueue", "ep0", second.pkt_id)] == lane_free + 10e-9
        assert when[("tx", "ep0", second.pkt_id)] == \
            released + params.propagation_delay
        assert port.credits[0].ordered is not None  # this port did queue

    def test_send_while_serializing_pushes_the_timer_in_its_reserved_slot(
            self):
        env, fabric = star()
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        first, second = data_packet(FROM_EP0), data_packet(FROM_EP0)
        order = []

        def hook(kind, device, port_index, packet, detail=None):
            if kind == "tx" and device is ep0:
                order.append(("tx", packet.pkt_id, env.now))
        ep0.trace_hook = hook
        serialization = first.size_bytes() * 8.0 / fabric.params.data_rate

        def rival(_event):
            # Drawn after the first transmission reserved its done
            # slot, before the second send pushes the timer into it.
            assert port._done_seq >= 0
            env.schedule_callback(port._free_at - env.now,
                                  lambda _e: order.append("rival"))

        def send_second(_event):
            reserved, free_at = port._done_seq, port._free_at
            ep0.inject(second)
            assert port.queued_packets() == 1 and port._done_seq == -1
            assert [entry[3] for entry in env._queue
                    if entry[:3] == (free_at, 1, reserved)] == [port._tx_start]
        env.schedule_callback(1e-6, lambda _event: ep0.inject(first))
        env.schedule_callback(1e-6 + serialization / 4, rival)
        env.schedule_callback(1e-6 + serialization / 2, send_second)
        env.run()
        free_at = 1e-6 + serialization
        assert order == [("tx", first.pkt_id, 1e-6),
                         ("tx", second.pkt_id, free_at), "rival"]

    def test_sends_before_the_run_leave_in_attach_kick_order(self):
        """Never direct outside dispatch: ep2 was wired first, so its
        URGENT attach kick — and its packet — goes first, whichever
        endpoint was handed its packet first."""
        env, fabric = star(sources=("ep2", "ep0"))
        log = log_port_events(fabric)
        ep0, ep2 = fabric.device("ep0"), fabric.device("ep2")
        ep0.inject(data_packet(FROM_EP0))
        ep2.inject(data_packet(FROM_EP2))
        assert [d.ports[0].queued_packets() for d in (ep0, ep2)] == [1, 1]
        assert [entry[0] for entry in log] == ["enqueue", "enqueue"]
        env.run(until=1e-9)
        assert [entry[:4] for entry in log[2:]] == [
            ("tx", "ep2", 0, 0.0), ("tx", "ep0", 0, 0.0)]

    def test_a_send_between_runs_waits_for_the_run(self):
        """The mutant that drops the ``quiet()`` condition transmits
        here, from code that is not an event handler."""
        env, fabric = star()
        env.run()  # the attach kicks: no kick pending, lane free
        log = log_port_events(fabric)
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        assert not port._tx_kick_scheduled and not port._tx_busy
        ep0.inject(data_packet(FROM_EP0))
        assert port.queued_packets() == 1 and port._tx_kick_scheduled
        assert [entry[0] for entry in log] == ["enqueue"]
        env.run()
        assert [entry[0] for entry in log[:2]] == ["enqueue", "tx"]

    def test_a_pending_kick_keeps_the_packet_for_itself(self):
        """The mutant that drops the ``_tx_kick_scheduled`` condition.
        In a run a pending kick is a heap entry at the current instant,
        so ``quiet()`` is false as well; the flag is the state the port
        can see without asking the kernel, set by hand here."""
        env, fabric = star()
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        seen = []

        def send(_event):
            assert env.quiet() and not port._tx_busy
            port._tx_kick_scheduled = True
            ep0.inject(data_packet(FROM_EP0))
            seen.append((port.queued_packets(), port.tx_packets))
            port._tx_kick()
            seen.append((port.queued_packets(), port.tx_packets))
        env.schedule_callback(1e-6, send)
        env.run()
        assert seen == [(1, 0), (0, 1)]

    def test_a_send_on_a_failed_link_is_dropped_and_counted_as_before(self):
        env, fabric = star()
        ep0 = fabric.device("ep0")
        port = ep0.ports[0]
        fabric.fail_link("ep0", "sw")

        def send(_event):
            ep0.inject(data_packet(FROM_EP0))
        env.schedule_callback(1e-6, send)
        env.run()
        assert port.stats["tx_dropped_no_link"] == 1
        assert (port.tx_queued, port.tx_packets) == (0, 0)
        assert port.credits == () and port.queued_packets() == 0


def both_ways(case):
    """``case()`` inside :func:`eager` and as ``src/`` stands; the two
    logs must match (packet ids renumbered by first sighting, since
    every packet of a process draws from one counter)."""
    logs = []
    for mode in (eager, nullcontext):
        with mode():
            log = case()
        numbers = {}
        logs.append([entry[:-1] + (numbers.setdefault(entry[-1],
                                                      len(numbers)),)
                     for entry in log])
    assert logs[0] == logs[1]
    return logs[1]


class TestAttachKicks:
    """A port's URGENT attach kick is only reserved, and pushed into its
    slot when a packet is queued before the kick would have run."""

    def test_a_send_before_the_run_pushes_its_port_kick_alone(self):
        seen = []

        def case():
            env, fabric = star(sources=("ep2", "ep0"))
            log = log_port_events(fabric)
            ep0, ep2 = fabric.device("ep0"), fabric.device("ep2")
            ep0.inject(data_packet(FROM_EP0))
            seen.append((len(env._queue), ep0.ports[0]._tx_kick_scheduled,
                         ep2.ports[0]._tx_kick_scheduled))
            env.run()
            return log
        both_ways(case)
        # Eager: one kick per attached port (six); the diet pushes ep0's.
        assert seen == [(6, True, True), (1, True, False)]

    def test_a_send_in_the_attaching_handlers_own_instant(self):
        """Wired mid-run, then sent on in the same handler: the packet
        waits for the kick, which runs right after the handler — and
        the kick, due at this instant, keeps ``quiet()`` false for a
        send on another port in between."""
        def case():
            env, fabric = star()
            log = log_port_events(fabric)
            ep0 = fabric.device("ep0")

            def attach_and_send(_handle):
                ep2 = fabric.add_endpoint("ep2")
                ep2.trace_hook = ep0.trace_hook
                fabric.connect("ep2", 0, "sw", 2)
                ep2.power_on()
                fabric.links[-1].bring_up()
                ep0.inject(data_packet(FROM_EP0))
                ep2.inject(data_packet(FROM_EP2))
                log.append(("queued", ep0.ports[0].queued_packets(),
                            ep2.ports[0].queued_packets(), env.now, None,
                            -1))
            env.schedule_callback(1e-6, attach_and_send)
            env.run()
            return log
        log = both_ways(case)
        assert log[2][:3] == ("queued", 1, 1)
        assert [entry[:2] for entry in log[3:5]] == [("tx", "ep2"),
                                                     ("tx", "ep0")]

    def test_a_mid_run_reattach_under_churn(self):
        """A device hot-added mid-run, its link flapped, and traffic on
        it long after its kick's instant: the kick has passed by then
        and the sends go direct, as after the eager kick."""
        def case():
            env, fabric = star()
            log = log_port_events(fabric)
            ep0 = fabric.device("ep0")
            state = []

            def hot_add(_handle):
                ep2 = fabric.add_endpoint("ep2")
                ep2.trace_hook = ep0.trace_hook
                fabric.connect("ep2", 0, "sw", 2)
                ep2.power_on()
                fabric.links[-1].bring_up()

            def flap(_handle):
                fabric.links[-1].take_down()
                fabric.links[-1].bring_up()

            def send(_handle):
                ep2 = fabric.device("ep2")
                ep2.inject(data_packet(FROM_EP2))
                ep0.inject(data_packet(FROM_EP0))
                port = ep2.ports[0]
                state.append((port._kick, port.queued_packets()))
            env.schedule_callback(1e-6, hot_add)
            env.schedule_callback(2e-6, flap)
            env.schedule_callback(3e-6, send)
            env.schedule_callback(5e-6, send)
            env.run()
            assert state == [(None, 0), (None, 0)]  # claimed; sent direct
            return log
        log = both_ways(case)
        assert [entry[0] for entry in log].count("tx") == 8  # 4 x 2 hops


class _Requester:
    """What :class:`TransactionEngine` needs of an entity, logging."""

    def __init__(self, env, log):
        self.env, self.log = env, log

    def send_pi4(self, message, pool, bits, out_port, transaction):
        self.log.append((self.env.now, "send", transaction.tag))


class _CountingEnvironment(Environment):
    """Counts the heap entries a retry timer takes."""

    def __init__(self):
        super().__init__()
        self.timer_pushes = 0

    def call_later(self, delay, fn, *args):
        self.timer_pushes += fn.__name__ == "_on_timeout"
        super().call_later(delay, fn, *args)

    def schedule_at(self, time, seq, fn, *args):
        self.timer_pushes += fn.__name__ == "_expire"
        super().schedule_at(time, seq, fn, *args)


class TestRetryTimers:
    """Only the head of a timeout period's FIFO is a heap entry."""

    POOL = SimpleNamespace(pool=0, bits=0)

    def rig(self, script, **engine_options):
        """``script(env, engine, open, complete)`` both ways; the log,
        and the timer pushes eager and diet."""
        pushes = []

        def case():
            env = _CountingEnvironment()
            log = []
            engine = TransactionEngine(env, _Requester(env, log), Counter(),
                                       **engine_options)

            def open_(at, timeout=None, name="r"):
                def go(_handle=None):
                    engine.open(name, self.POOL, 0, lambda reply, ctx:
                                log.append((env.now, "gave up", ctx)),
                                ctx=name, timeout=timeout)
                env.schedule_callback(at, go)

            def complete(at, tag):
                env.schedule_callback(at, lambda _handle: engine.complete(
                    SimpleNamespace(tag=tag)))
            script(env, engine, open_, complete)
            env.run()
            log.append((env.now, "drained"))  # where a bare run stops
            assert engine._timers == {}  # drained FIFOs are deleted
            pushes.append(env.timer_pushes)
            return [entry + (0,) for entry in log]
        return both_ways(case), pushes

    def test_a_retry_with_backoff_opens_a_new_period(self):
        def script(env, engine, open_, complete):
            open_(0.0)
        log, pushes = self.rig(script, max_retries=3)
        assert [entry[:2] for entry in log] == [
            (0.0, "send"), (1e-3, "send"), (3e-3, "send"), (7e-3, "send"),
            (15e-3, "gave up"), (15e-3, "drained")]
        assert pushes == [4, 4]

    def test_a_fixed_cadence_retry_stays_in_its_fifo(self):
        def script(env, engine, open_, complete):
            for i in range(6):
                open_(i * 1e-4, timeout=1e-3, name=f"r{i}")
            for tag in (1, 2, 4):
                complete(5e-4, tag)
        log, pushes = self.rig(script, max_retries=2)
        assert sum(1 for entry in log if entry[1] == "gave up") == 3
        assert pushes[1] < pushes[0]

    def test_the_last_timer_keeps_the_heap_busy_until_it_is_due(self):
        """Closed timers behind the head are dropped, but never the last
        one: a bare ``run()`` stops, and ``peek()`` reads idle, when the
        eager timers' would."""
        def script(env, engine, open_, complete):
            for i in range(3):
                open_(i * 1e-4, timeout=1e-3, name=f"r{i}")
            for tag in (1, 2, 3):
                complete(5e-4, tag)
        log, pushes = self.rig(script)
        assert log[-1][:2] == (2e-4 + 1e-3, "drained")
        assert pushes == [3, 2]

    def test_cancel_all_mid_flight(self):
        def script(env, engine, open_, complete):
            for i in range(4):
                open_(i * 1e-4, name=f"r{i}")
            env.schedule_callback(1.5e-3, lambda _h: engine.cancel_all())
        log, pushes = self.rig(script)
        assert [entry[1] for entry in log] == ["send"] * 8 + ["drained"]
        assert pushes[1] < pushes[0]

    def test_a_deadline_tied_with_another_entry(self):
        def script(env, engine, open_, complete):
            note = engine.entity.log.append
            env.schedule_callback(1e-3, lambda _h: note((env.now, "before")))
            for name in "rs":  # drawn between the two notes, at t=0
                engine.open(name, self.POOL, 0, lambda reply, ctx: note(
                    (env.now, "gave up", ctx)), ctx=name, timeout=1e-3)
            complete(5e-4, 2)
            env.schedule_callback(1e-3, lambda _h: note((env.now, "after")))
        log, _pushes = self.rig(script, max_retries=1)
        assert [entry[1] for entry in log] == [
            "send", "send", "before", "send", "after", "gave up", "drained"]

    def test_distinct_periods_push_no_more_than_eager(self):
        """Policy-derived periods differ per route; each gets a FIFO."""
        def script(env, engine, open_, complete):
            for i, timeout in enumerate((1e-3, 2e-3, 1e-3, 3e-3, 2e-3, 1e-3)):
                open_(i * 1e-4, timeout=timeout, name=f"r{i}")
            for tag in (2, 4, 5):  # the three still open at t=4 ms
                complete(4e-3, tag)
        log, pushes = self.rig(script, max_retries=1)
        assert sum(1 for entry in log if entry[1] == "gave up") == 3
        assert pushes[1] <= pushes[0]
