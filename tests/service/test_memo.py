"""Exactness and staleness: the two ways a per-version memo can lie.

Reads (``status``/``topology``/``path``/``metrics``) are answered from
the driver's memo whenever their entry is of the current ``version``.
Two things must hold for that to be invisible:

* **exact** — a memoised answer is byte-for-byte what the un-memoised
  handler returns when it is run on the sim thread at the same version
  (the differential tests: a scripted interleaving of reads, mutations,
  traffic, waits and churn, for both managers and through a takeover);
* **never stale** — the version moves wherever something a read can
  observe changes: after a batch that executed an event, before a
  non-read command runs, when the kernel dies.  Each of those three
  bump sites has a named test here that fails when the site is removed
  (``test_kernel_progress_moves_the_version``,
  ``test_acknowledged_mutation_is_visible_to_another_client``,
  ``test_kernel_crash_is_reported_by_the_next_status``).

The tests park the sim thread between two kernel events (a read under
a key nobody else uses, blocked on a ``threading.Event``): the version
then cannot move, queued work is drained in order once the thread is
let go, and anything answered meanwhile was answered without the
command queue.
"""

import itertools
import json
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.service import api, start_service
from repro.service.client import ServiceError
from repro.service.driver import MEMO_CAP, DriverStopped

#: Seconds any single wait in this file may take.
WAIT = 30.0

_unique = itertools.count()


def _dumps(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


class Wire:
    """A raw NDJSON connection: send now, read the response line later."""

    def __init__(self, handle):
        self.sock = socket.create_connection((handle.host, handle.port),
                                             timeout=WAIT)
        self.file = self.sock.makefile("rwb")
        self.ids = itertools.count(1)
        assert json.loads(self.file.readline())["event"] == "hello"

    def send(self, op, **params) -> int:
        request_id = next(self.ids)
        self.file.write(_dumps({"id": request_id, "op": op, **params})
                        + b"\n")
        self.file.flush()
        return request_id

    def recv(self) -> bytes:
        line = self.file.readline()
        assert line, "service closed the connection"
        return line

    def ask(self, op, **params) -> dict:
        self.send(op, **params)
        return json.loads(self.recv())

    def result(self, op, **params) -> dict:
        response = self.ask(op, **params)
        assert response["ok"], response
        return response["result"]

    def close(self):
        self.file.close()
        self.sock.close()


@contextmanager
def wires(handle, count):
    opened = [Wire(handle) for _ in range(count)]
    try:
        yield opened
    finally:
        for wire in opened:
            wire.close()


def on_sim_thread(driver, fn):
    """Future of ``fn(setup)`` run between two kernel events *without*
    moving the version: a read under a key nobody else uses."""
    return driver.read(("test", next(_unique)), fn)


class Park:
    """Holds the sim thread between two kernel events (after running
    ``first`` there).  Queued on construction; ``with`` waits until the
    thread is held and lets it go on exit.  Whatever was queued behind
    then runs, in order, before the next kernel event."""

    def __init__(self, driver, first=None):
        self.entered, self.release = threading.Event(), threading.Event()

        def park(setup):
            if first is not None:
                first(setup)
            self.entered.set()
            assert self.release.wait(WAIT)

        self.future = on_sim_thread(driver, park)

    def __enter__(self):
        assert self.entered.wait(WAIT)
        return self

    def __exit__(self, *exc_info):
        self.release.set()
        self.future.result(WAIT)


def _until(predicate, what="condition"):
    deadline = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def settle(handle):
    """Wait until the FM is ready and not discovering."""
    def settled(setup):
        ready = setup.fm.ready_event
        return (ready is not None and ready.triggered
                and not setup.fm.is_discovering)

    _until(lambda: handle.driver.call(settled), "the FM to settle")


def quiesce(handle):
    """Wait until the heap is empty: nothing moves until a command."""
    settle(handle)
    _until(lambda: handle.driver.call(
        lambda setup: setup.env.peek() == float("inf")),
        "the kernel to go idle")


def fresh(driver, setup, op, params):
    """``(version, outcome)`` of the un-memoised handler; sim thread."""
    try:
        document = api.HANDLERS[op][0](setup, driver, params)
    except api.ApiError as exc:
        return driver.version, ("error", {"code": exc.code,
                                          "message": exc.message})
    document["version"] = driver.version
    return driver.version, ("ok", document)


def expected_line(request_id, outcome) -> bytes:
    kind, body = outcome
    if kind == "ok":
        return (b'{"id":%d,"ok":true,"result":' % request_id
                + _dumps(body) + b"}\n")
    return _dumps({"id": request_id, "ok": False, "error": body}) + b"\n"


def check_at_one_version(handle, conns, queries):
    """Every query, answered over TCP at one frozen version, first as
    it comes (hit or miss) and then again while the sim thread is
    parked (so from the memo or not at all), equals the un-memoised
    handler run at that version byte for byte.  Returns the version."""
    driver = handle.driver
    box = {}

    def reference(setup):
        box["refs"] = [fresh(driver, setup, op, params)
                       for op, params in queries]

    with Park(driver):
        hits = driver.memo_hits
        ids = [wire.send(op, **params)
               for wire, (op, params) in zip(conns, queries)]
        # Each request is now either answered (a hit) or queued behind
        # the parked thread (a miss).
        _until(lambda: (driver._commands.qsize() + driver.memo_hits - hits
                        == len(queries)), "the requests to land")
        second = Park(driver, first=reference)
    # The first park is over: the queued misses ran, then `reference`,
    # and the thread is parked again — no kernel event in between.
    with second:
        version = driver.version
        for wire, request_id, (at, outcome) in zip(conns, ids, box["refs"]):
            assert at == version
            assert wire.recv() == expected_line(request_id, outcome)
        hits = driver.memo_hits
        for wire, (op, params), (_, outcome) in zip(conns, queries,
                                                    box["refs"]):
            request_id = wire.send(op, **params)
            assert wire.recv() == expected_line(request_id, outcome)
        assert driver.memo_hits - hits == len(queries)
        assert driver.version == version
    return version


def compare_free_running(handle, wire, queries, rounds):
    """No parking: ask over TCP, then run the handler; whenever both
    happened at the same version they must agree.  Returns how many
    comparisons that allowed."""
    driver = handle.driver
    compared = 0
    for _ in range(rounds):
        for op, params in queries:
            request_id = wire.send(op, **params)
            line = wire.recv()
            at, outcome = on_sim_thread(
                driver, lambda s: fresh(driver, s, op, params)).result(WAIT)
            response = json.loads(line)
            seen = response["result"]["version"] if response["ok"] else None
            if seen == at:
                assert line == expected_line(request_id, outcome)
                compared += 1
    return compared


def _queries(handle, *lost):
    """The four reads: two healthy paths, and one towards each device
    in ``lost`` (which the script removes: error answers are memoised
    too)."""
    devices = handle.setup.fabric.devices
    corner, far = devices["ep_0_0"].dsn, devices["ep_2_2"].dsn
    queries = [("status", {}), ("topology", {}), ("metrics", {}),
               ("path", {"src": corner, "dst": far}),
               ("path", {"src": far, "dst": corner})]
    queries += [("path", {"src": corner, "dst": devices[name].dsn})
                for name in lost]
    return queries


class TestDifferential:
    """(a) exactness: memoised == un-memoised at the same version."""

    @pytest.mark.parametrize("manager", ["full", "partial"])
    def test_scripted_interleaving(self, manager):
        with start_service("mesh9", manager=manager) as handle:
            queries = _queries(handle, "ep_1_1")
            with wires(handle, len(queries) + 1) as conns:
                control, conns = conns[0], conns[1:]

                def check():
                    return check_at_one_version(handle, conns, queries)

                versions = [check()]          # mid initial discovery
                settle(handle)
                versions.append(check())
                script = [
                    ("remove_device", {"name": "sw_1_1"}),
                    ("restore_device", {"name": "sw_1_1"}),
                    ("fail_link", {"a": "sw_0_1", "b": "sw_0_2"}),
                    ("restore_link", {"a": "sw_0_1", "b": "sw_0_2"}),
                    ("rediscover", {"force": True}),
                    ("start_traffic", {"load": 0.2, "packet_bytes": 128}),
                    ("stop_traffic", {}),
                ]
                compared = 0
                for verb, params in script:
                    control.result(verb, **params)
                    versions.append(check())  # right behind the verb
                    compared += compare_free_running(
                        handle, control, queries, rounds=2)
                    if verb == "start_traffic":
                        time.sleep(0.05)      # the kernel never idles
                    else:
                        settle(handle)
                    versions.append(check())
                # Idle wait: nothing moves, the same bytes come back.
                quiesce(handle)
                idle = check()
                time.sleep(0.05)
                assert check() == idle
                compared += compare_free_running(
                    handle, control, queries, rounds=2)
                # Bounded churn: faults land faster than the FM settles.
                for i in range(6):
                    verb = "remove_device" if i % 2 == 0 else "restore_device"
                    control.result(verb, name="sw_1_1")
                    versions.append(check())
                settle(handle)
                versions.append(check())
                assert versions == sorted(versions)
                assert versions[-1] > versions[0]
                # On an idle fabric every free-running pair compares.
                assert compared >= 2 * len(queries)
                assert handle.driver.crashed is None

    def test_through_a_takeover(self):
        with start_service("mesh9", manager="partial",
                           standby=True) as handle:
            queries = _queries(handle)
            with wires(handle, len(queries) + 1) as conns:
                control, conns = conns[0], conns[1:]
                settle(handle)
                before = check_at_one_version(handle, conns, queries)
                primary = control.result("status")
                control.result("kill_fm")
                during = check_at_one_version(handle, conns, queries)
                _until(lambda: handle.standby.active
                       and handle.setup.fm is handle.standby.fm,
                       "the takeover")
                settle(handle)
                after = check_at_one_version(handle, conns, queries)
                assert before < during < after
                # The reads now describe the promoted FM's database.
                status = control.result("status")
                assert status["version"] >= after
                assert 0 < status["devices_known"] < primary["devices_known"]
                assert handle.driver.crashed is None


class TestStaleness:
    """(b) a memo entry never outlives what it describes."""

    def test_quiet_reads_repeat_and_ping_is_the_probe(self):
        with start_service("mesh9") as handle, wires(handle, 1) as (wire,):
            quiesce(handle)
            first = wire.ask("topology")
            ping = wire.result("ping")
            second = wire.ask("topology")
            assert first["result"] == second["result"]
            assert first["result"]["version"] == ping["version"]
            after = wire.result("ping")
            assert after["version"] == ping["version"]
            assert after["memo_hits"] >= ping["memo_hits"] + 1
            # The documented consequence: a hit runs no command, so the
            # counters inside a memoised document stand still...
            commands = handle.driver.commands_run
            statuses = [wire.result("status") for _ in range(5)]
            assert handle.driver.commands_run <= commands + 1
            assert len({_dumps(status) for status in statuses}) == 1
            # ...and the summary reports what the memo did.
            summary = handle.service.summary()
            assert summary["memo_hits"] == handle.driver.memo_hits >= 5
            assert summary["memo_misses"] == handle.driver.memo_misses
            assert summary["version"] == handle.driver.version

    def test_kernel_progress_moves_the_version(self):
        """Bump site 1: after a batch that executed an event."""
        with start_service("mesh9") as handle, wires(handle, 1) as (wire,):
            quiesce(handle)
            driver = handle.driver
            before = wire.result("status")
            assert wire.result("status") == before      # memoised
            # Start a rediscovery from *inside* the kernel (an event),
            # armed by a read: no command bumps the version for it.
            on_sim_thread(driver, lambda setup: setup.env.schedule_callback(
                1e-6, lambda _event: setup.fm.start_discovery(
                    trigger="change", force=True))).result(WAIT)
            _until(lambda: len(handle.setup.fm.history) >= 2,
                   "the rediscovery")
            after = wire.result("status")
            assert after["discoveries"] == 2
            assert after["version"] > before["version"]
            assert after["sim_time"] > before["sim_time"]

    def test_acknowledged_mutation_is_visible_to_another_client(self):
        """Bump site 2: before a non-read command runs."""
        with start_service("mesh9") as handle, \
                wires(handle, 2) as (alice, bob):
            quiesce(handle)
            driver = handle.driver
            before = bob.result("status")
            assert before["is_discovering"] is False
            assert bob.result("status") == before       # memoised
            with Park(driver):
                sent = alice.send("rediscover", force=True)
                _until(lambda: driver._commands.qsize() == 1,
                       "the mutation to queue")
                second = Park(driver)
            # The mutation ran and the thread is parked again: no
            # kernel event has executed since Bob's last answer.
            with second:
                ack = json.loads(alice.recv())
                assert ack["id"] == sent and ack["ok"]
                assert driver.events_stepped == before["driver"][
                    "events_stepped"]
                asked = bob.send("status")
                # Bob's read must queue behind the parked thread (the
                # pre-mutation entry is not current any more).
                _until(lambda: driver._commands.qsize() == 1,
                       "Bob's read to queue")
            after = json.loads(bob.recv())
            assert after["id"] == asked
            assert after["result"]["is_discovering"] is True
            assert after["result"]["version"] > before["version"]

    def test_kernel_crash_is_reported_by_the_next_status(self):
        """Bump site 3: when the kernel dies — here on the first event
        of a batch, so no executed event moves the version for it —
        and the service keeps serving reads afterwards."""
        with start_service("mesh9") as handle, wires(handle, 1) as (wire,):
            quiesce(handle)
            driver = handle.driver
            before = wire.result("status")
            assert before["driver"]["crashed"] is None
            assert wire.result("status") == before      # memoised

            def bomb(_event):
                raise RuntimeError("kernel bomb")

            on_sim_thread(driver, lambda setup: setup.env.schedule_callback(
                0.0, bomb)).result(WAIT)
            _until(lambda: driver.crashed is not None, "the crash")
            after = wire.result("status")
            assert after["driver"]["crashed"] is not None
            assert "kernel bomb" in after["driver"]["crashed"]
            assert after["version"] > before["version"]
            assert after["driver"]["events_stepped"] == before["driver"][
                "events_stepped"]
            # Still serving reads.
            topology = wire.result("topology")
            assert len(topology["devices"]) == 18
            assert wire.result("metrics")["version"] >= after["version"]
            assert wire.result("status")["driver"]["crashed"] == after[
                "driver"]["crashed"]

    def test_a_mutation_after_a_kernel_crash_fails(self):
        """Once the kernel has died nothing a command changes will ever
        be simulated, so a mutation verb fails instead of answering
        success with a frozen ``sim_time``; reads are still answered."""
        with start_service("mesh9") as handle:
            quiesce(handle)
            driver = handle.driver

            def bomb(_event):
                raise RuntimeError("kernel bomb")

            on_sim_thread(driver, lambda setup: setup.env.schedule_callback(
                0.0, bomb)).result(WAIT)
            _until(lambda: driver.crashed is not None, "the crash")
            with pytest.raises(DriverStopped, match="kernel crashed: "
                               "RuntimeError\\('kernel bomb'\\)"):
                api.call_op(driver, "remove_device", {"name": "sw_1_1"})
            assert on_sim_thread(driver, lambda setup: setup.fabric.device(
                "sw_1_1").active).result(WAIT)
            status = api.call_op(driver, "status")
            assert "kernel bomb" in status["driver"]["crashed"]

    def test_a_refused_command_is_answered_driver_stopped(self):
        """On the wire a command the dead kernel refuses carries its
        own code, not ``internal`` (the code of a handler bug), and
        the message keeps the crash; reads are still answered."""
        with start_service("mesh9") as handle:
            quiesce(handle)
            driver = handle.driver

            def bomb(_event):
                raise RuntimeError("kernel bomb")

            on_sim_thread(driver, lambda setup: setup.env.schedule_callback(
                0.0, bomb)).result(WAIT)
            _until(lambda: driver.crashed is not None, "the crash")
            client = handle.client()
            try:
                with pytest.raises(ServiceError) as refused:
                    client.request("remove_device", name="sw_1_1")
                assert refused.value.code == "driver-stopped"
                assert str(refused.value) == (
                    "driver-stopped: DriverStopped: kernel crashed: "
                    "RuntimeError('kernel bomb')")
                status = client.request("status")
                assert "kernel bomb" in status["driver"]["crashed"]
            finally:
                client.close()

    def test_memo_is_capped_and_written_on_the_sim_thread_only(self):
        with start_service("mesh9") as handle, wires(handle, 1) as (wire,):
            quiesce(handle)
            driver = handle.driver
            writers = set()
            compute = driver._read_now

            def spy(key, fn):
                writers.add(threading.current_thread().name)
                return compute(key, fn)

            driver._read_now = spy
            dsns = sorted(d.dsn for d in handle.setup.fabric.devices.values())
            pairs = list(itertools.product(dsns, dsns))[:MEMO_CAP + 30]
            answers = {}
            for _ in range(2):
                for src, dst in pairs:
                    response = wire.ask("path", src=src, dst=dst)
                    response.pop("id")
                    # Beyond the cap a read is recomputed per request,
                    # and still says the same thing.
                    assert answers.setdefault((src, dst),
                                              response) == response
                    version, values = driver._memo
                    assert len(values) <= MEMO_CAP
            assert version == driver.version
            assert len(values) == MEMO_CAP
            assert writers == {"sim-driver"}
            # A mutation drops the lot.
            wire.result("rediscover", force=True)
            wire.result("status")
            assert len(driver._memo[1]) < MEMO_CAP


class TestConcurrentCallers:
    def test_no_torn_stale_or_uncounted_read_under_contention(self):
        """More caller threads than cores, a shortened switch interval,
        and a mutator moving the version under them: every caller sees
        versions that never go back, one document per (read, version),
        and every read is counted exactly once as a hit or a miss."""
        readers, seconds = 6, 1.5
        queries = [("status", {}), ("topology", {}), ("metrics", {})]
        with start_service("mesh9") as handle:
            settle(handle)
            driver = handle.driver
            devices = handle.setup.fabric.devices
            queries.append(("path", {"src": devices["ep_0_0"].dsn,
                                     "dst": devices["ep_2_2"].dsn}))
            baseline = driver.memo_hits + driver.memo_misses
            stop = threading.Event()
            seen, problems, counts = {}, [], [0] * readers
            seen_lock = threading.Lock()

            def reader(index):
                last = 0
                try:
                    while not stop.is_set():
                        for op, params in queries:
                            counts[index] += 1
                            try:
                                document = api.call_op(driver, op, params)
                            except api.ApiError as exc:
                                # Mid-rediscovery the database is partial.
                                if exc.code not in ("unknown-dsn", "no-path"):
                                    raise
                                continue
                            version = document["version"]
                            if version < last:
                                problems.append(
                                    f"{op}: version {last} -> {version}")
                            last = version
                            encoded = _dumps(document)
                            with seen_lock:
                                first = seen.setdefault((op, version), encoded)
                            if first != encoded:
                                problems.append(f"{op}@{version}: two answers")
                except Exception as exc:
                    problems.append(f"reader {index}: {exc!r}")

            def mutator():
                try:
                    while not stop.is_set():
                        before = driver.version
                        api.call_op(driver, "rediscover", {"force": True})
                        after = api.call_op(driver, "status")
                        if not (after["version"] > before
                                and after["discoveries"] >= 1):
                            problems.append(f"mutation unseen: {after}")
                        time.sleep(0.01)
                except Exception as exc:
                    problems.append(f"mutator: {exc!r}")

            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(readers)]
            threads.append(threading.Thread(target=mutator))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                for thread in threads:
                    thread.start()
                time.sleep(seconds)
                stop.set()
                for thread in threads:
                    thread.join(WAIT)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not problems, problems[:5]
            assert min(counts) > 0
            assert driver.memo_hits > 0 and driver.memo_misses > 0
            # The mutator's own status reads are reads too.
            total = driver.memo_hits + driver.memo_misses - baseline
            assert total >= sum(counts)
            mutator_reads = total - sum(counts)
            assert 0 < mutator_reads <= seconds / 0.01 + 1
            assert driver.crashed is None
