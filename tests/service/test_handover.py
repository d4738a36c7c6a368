"""What a read under churn costs, pinned as counts and states — not
as times, so the pins hold on any host.

* the stepping loop ends its batch at the first kernel event after a
  command was queued, executes at least one event between two drains
  of the queue, and moves ``version`` by the three bump rules only;
* the interpreter's switch interval is the service's constant exactly
  while at least one service runs;
* the feed hub does not wake the loop thread for nobody;
* a request line over the frame limit is answered, counted, and does
  not cost the connection;
* a request costs no allocation above glibc's mmap threshold: the
  connection's receive buffer is bounded by the frame limit.
"""

import json
import math
import selectors
import socket
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.service import start_service
from repro.service.driver import BATCH, DriverStopped, SimulationDriver
from repro.service.harness import SWITCH_INTERVAL
from repro.service.server import FRAME_LIMIT, READ, FeedHub, _Connection

from .test_memo import WAIT, _until, quiesce, settle

class StubKernel:
    """``peek``/``step`` of a kernel holding ``total`` events; the k-th
    ``step`` runs ``hooks[k](driver)`` (on the sim thread, as a model
    would run)."""

    def __init__(self, total, hooks):
        self.total, self.hooks, self.executed = total, hooks, 0
        self.driver = None

    def peek(self):
        return 0.0 if self.executed < self.total else math.inf

    def step(self):
        self.executed += 1
        hook = self.hooks.get(self.executed)
        if hook is not None:
            hook(self.driver)


def _drive(total, hooks):
    """Run a driver over a stub kernel until the kernel is exhausted
    (or dead) and everything the hooks queued has run; returns the
    stopped driver.  The barrier command this queues last moves the
    version once more (bump rule 2) — unless the kernel died: then it is
    refused and moves nothing."""
    kernel = StubKernel(total, hooks)
    driver = kernel.driver = SimulationDriver(SimpleNamespace(env=kernel))
    driver.start()
    try:
        _until(lambda: kernel.peek() == math.inf or driver.crashed,
               "kernel neither exhausted nor dead")
        barrier = driver.submit(lambda setup: None)
        if driver.crashed is None:
            barrier.result(WAIT)
        else:
            with pytest.raises(DriverStopped, match="kernel crashed"):
                barrier.result(WAIT)
    finally:
        driver.stop(timeout=WAIT)
    assert not driver.running
    return driver


class TestInterruptibleBatch:
    K, TOTAL = 5, 300
    #: Batches the rest of the kernel runs in once nobody asks.
    TAIL = math.ceil((TOTAL - K) / BATCH)

    def test_a_command_ends_the_batch_and_runs_before_the_next_event(self):
        ran_at = []

        def ask(driver):
            driver.submit(lambda setup: ran_at.append(setup.env.executed))

        driver = _drive(self.TOTAL, {self.K: ask})
        # Queued during event K, run before event K + 1 (the parent ran
        # it after event 128).
        assert ran_at == [self.K]
        assert driver.events_stepped == self.TOTAL
        assert driver.batches == 1 + self.TAIL
        # Rule 1 once per batch; rule 2 for the command and the barrier.
        assert driver.version == (1 + self.TAIL) + 2

    def test_a_read_ends_the_batch_without_moving_the_version(self):
        answers = []

        def ask(driver):
            answers.append(driver.read(
                ("probe",),
                lambda setup: (setup.env.executed, driver.version)))

        driver = _drive(self.TOTAL, {self.K: ask})
        # Computed between events K and K + 1, at the version the
        # K-event batch ended with; the read itself bumped nothing.
        assert answers[0].result(WAIT) == (self.K, 1)
        assert driver.batches == 1 + self.TAIL
        assert driver.version == (1 + self.TAIL) + 1
        assert (driver.memo_misses, driver.memo_hits) == (1, 0)

    def test_a_flood_slows_the_kernel_but_never_stops_it(self):
        """A command queued during *every* event: each drain of the
        queue is still followed by one event, never by none."""
        total = 50
        ran_at = []

        def ask(driver):
            driver.submit(lambda setup: ran_at.append(setup.env.executed))

        driver = _drive(total, {k: ask for k in range(1, total + 1)})
        assert ran_at == list(range(1, total + 1))
        assert (driver.events_stepped, driver.batches) == (total, total)
        # One bump per one-event batch, per command, and the barrier.
        assert driver.version == 2 * total + 1

    def test_an_unobserved_kernel_runs_full_batches(self):
        driver = _drive(3 * BATCH + 1, {})
        assert driver.events_stepped == 3 * BATCH + 1
        assert driver.batches == 4
        assert driver.version == 4 + 1

    def test_a_crash_bumps_and_is_kept(self):
        def boom(driver):
            raise RuntimeError("model bug")

        driver = _drive(10, {3: boom})
        assert isinstance(driver.crashed, RuntimeError)
        # Events 1 and 2 completed: rule 3 for the crash, rule 1 for
        # the batch it ended; the barrier, refused, bumps nothing.
        assert driver.events_stepped == 2
        assert driver.version == 2


class TestSwitchInterval:
    """The constant holds exactly while a service runs: the batch
    simulator and whatever else shares the process keep their own."""

    @pytest.fixture(autouse=True)
    def _outside(self):
        self.outside = sys.getswitchinterval()
        assert self.outside != pytest.approx(SWITCH_INTERVAL)
        yield
        assert sys.getswitchinterval() == self.outside

    @staticmethod
    def _held():
        return sys.getswitchinterval() == pytest.approx(SWITCH_INTERVAL)

    def test_held_while_running_and_restored_by_stop(self):
        handle = start_service("mesh9")
        try:
            assert self._held()
        finally:
            handle.stop()
        assert sys.getswitchinterval() == self.outside
        handle.stop()  # idempotent: restores once
        assert sys.getswitchinterval() == self.outside

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_two_overlapping_services(self, first_out):
        handles = [start_service("mesh9"), start_service("mesh9")]
        try:
            assert self._held()
            handles[first_out].stop()
            assert self._held()  # the other one still runs
        finally:
            for handle in handles:
                handle.stop()
        assert sys.getswitchinterval() == self.outside

    def test_restored_when_the_server_cannot_bind(self):
        before = set(threading.enumerate())
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            with pytest.raises(OSError):
                start_service("mesh9", port=taken.getsockname()[1])
        assert sys.getswitchinterval() == self.outside
        assert not [t for t in set(threading.enumerate()) - before
                    if t.name in ("sim-driver", "service-loop")]

    def test_a_failed_start_leaves_a_running_service_its_interval(self):
        with start_service("mesh9") as handle:
            with pytest.raises(OSError):
                start_service("mesh9", port=handle.port)
            assert self._held()
            with handle.client() as client:
                assert client.request("ping")["schema"]


class RecordingLoop:
    """Stands in for the service loop a hub is bound to."""

    def __init__(self):
        self.scheduled = []

    def call_soon_threadsafe(self, callback, *args):
        self.scheduled.append((callback, args))


class RecordingSubscriber:
    """Stands in for a subscribed connection whose peer reads."""

    paused = False

    def __init__(self):
        self.written = []
        self.write = self.written.append


class TestFeedWithoutSubscribers:
    def test_no_loop_callback_is_scheduled_for_nobody(self):
        hub, loop = FeedHub(), RecordingLoop()
        hub.bind(loop)
        for i in range(3):
            hub.publish({"event": "pi5", "n": i})
        assert loop.scheduled == []
        # Still stamped and counted: ``seq`` has no holes for the
        # subscriber that comes later.
        assert hub.published == 3
        subscriber = RecordingSubscriber()
        hub.subscribers.add(subscriber)
        hub.publish({"event": "pi5", "n": 3})
        (callback, (event,)), = loop.scheduled
        assert event == {"event": "pi5", "n": 3, "seq": 4}
        callback(event)
        assert subscriber.written == [b'{"event":"pi5","n":3,"seq":4}\n']
        hub.subscribers.discard(subscriber)
        hub.publish({"event": "pi5", "n": 4})
        assert len(loop.scheduled) == 1

    def test_every_event_after_the_acknowledgement_is_delivered(self):
        """``subscribe`` is acknowledged only once the hub knows the
        subscriber, so the sim thread cannot skip the hop for an event
        published after the client read the answer."""
        rounds = 40
        with start_service("mesh9") as handle:
            publish = handle.service.hub.publish
            for i in range(rounds):
                with handle.client() as client:
                    assert client.subscribe() == {"subscribed": True}
                    # From another thread than the loop's, like the
                    # sim thread; at once after the acknowledgement.
                    publish({"event": "marker", "round": i})
                    event = client.next_event(timeout=WAIT)
                    while event["event"] != "marker":
                        event = client.next_event(timeout=WAIT)
                    assert event["round"] == i
            assert handle.service.hub.dropped == 0


class TestFanOut:
    def test_a_subscriber_gone_mid_fan_out_costs_nobody_the_event(self):
        """A write that finds its peer gone closes that connection,
        which unsubscribes it while the hub is writing to the rest."""
        hub = FeedHub()
        staying = [RecordingSubscriber() for _ in range(3)]
        leaving = RecordingSubscriber()
        leaving.write = lambda line: hub.subscribers.discard(leaving)
        hub.subscribers.update([*staying, leaving])
        hub._fan_out({"event": "pi5"})
        assert all(s.written == [b'{"event":"pi5"}\n'] for s in staying)
        assert hub.subscribers == set(staying)


class TestReceiveBuffer:
    """A read with ``recv(n)`` allocates a fresh ``bytes`` of ``n``
    bytes first.  Above the allocator's 128 KiB mmap threshold that is
    an mmap, its page faults and an munmap under the GIL every time (as
    asyncio's selector transport did with its 256 KiB default); the
    connection bounds the read by the frame limit it enforces anyway."""

    #: glibc's default M_MMAP_THRESHOLD.
    MMAP_THRESHOLD = 128 * 1024

    def test_the_transport_reads_at_most_a_frame(self):
        asked = []

        class Recording(socket.socket):
            def recv(self, size):
                asked.append(size)
                return super().recv(size)

        ours, peer = socket.socketpair()
        setup = SimpleNamespace(spec=SimpleNamespace(name="stub"),
                                fm=SimpleNamespace(algorithm_key="stub"))
        service = SimpleNamespace(
            selector=selectors.DefaultSelector(), connections_accepted=0,
            _connections=set(), driver=SimpleNamespace(setup=setup))
        with service.selector, peer, Recording(fileno=ours.detach()) as sock:
            received = []
            connection = _Connection(service, sock)
            connection._received = received.append
            peer.sendall(b'{"op":"ping"}\n')
            connection._ready(READ)
            assert received == [b'{"op":"ping"}\n']
        assert asked == [FRAME_LIMIT]
        assert FRAME_LIMIT < self.MMAP_THRESHOLD

    def test_fifty_requests_allocate_nothing_near_the_threshold(self):
        with start_service("mesh9") as handle:
            quiesce(handle)
            with handle.client() as client:
                client.request("ping")
                tracemalloc.start()
                try:
                    client.request("ping")
                    tracemalloc.reset_peak()
                    held, _ = tracemalloc.get_traced_memory()
                    for _ in range(50):
                        assert "version" in client.request("ping")
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert peak - held < self.MMAP_THRESHOLD, (
            f"{peak - held} bytes above the level held before: a "
            f"receive buffer over the mmap threshold is back")


class TestOversizedFrame:
    @pytest.mark.parametrize("size", [70_000, 3 * FRAME_LIMIT + 17])
    def test_answered_counted_and_the_connection_survives(self, size):
        """70 kB arrives whole or in two pieces; the longer line
        certainly in several, each over the limit on its own — still
        one frame, one answer."""
        with start_service("mesh9") as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=WAIT) as sock:
                wire = sock.makefile("rwb")
                assert json.loads(wire.readline())["event"] == "hello"
                request = {"id": 1, "op": "ping", "pad": ""}
                request["pad"] = "x" * (size - len(json.dumps(request)))
                wire.write(json.dumps(request).encode() + b"\n")
                wire.write(b'{"id":2,"op":"ping"}\n')
                wire.flush()
                first = json.loads(wire.readline())
                assert first["id"] is None and first["ok"] is False
                assert first["error"]["code"] == "frame-too-large"
                assert str(FRAME_LIMIT) in first["error"]["message"]
                second = json.loads(wire.readline())
                assert second["id"] == 2 and second["ok"] is True
                # Nothing else was answered in between or after.
                wire.write(b'{"id":3,"op":"status"}\n')
                wire.flush()
                assert json.loads(wire.readline())["id"] == 3
            summary = handle.stop()
            assert summary["errors"] == 1
            assert summary["requests"] == 2

    def test_a_line_of_exactly_the_limit_is_a_request(self):
        with start_service("mesh9") as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=WAIT) as sock:
                wire = sock.makefile("rwb")
                wire.readline()
                request = {"id": 1, "op": "ping", "pad": ""}
                request["pad"] = "x" * (
                    FRAME_LIMIT - 1 - len(json.dumps(request)))
                line = json.dumps(request).encode() + b"\n"
                assert len(line) == FRAME_LIMIT
                wire.write(line)
                wire.flush()
                assert json.loads(wire.readline())["ok"] is True
            assert handle.stop()["errors"] == 0


class TestBatchesAreReported:
    def test_summary_counts_batches_beside_events(self):
        with start_service("mesh9") as handle:
            settle(handle)
            with handle.client() as client:
                ping = client.request("ping")
                status = client.request("status")
            summary = handle.stop()
        assert 0 < summary["batches"] <= summary["events_stepped"]
        assert summary["events_stepped"] == handle.driver.events_stepped
        assert summary["batches"] == handle.driver.batches
        # No wire-schema change rides along.
        assert set(ping) == {"schema", "wall_time", "version",
                             "memo_hits", "memo_misses"}
        assert set(status["driver"]) == {"events_stepped", "commands_run",
                                         "crashed"}
