"""Live-service tests: real sockets, real threads, real churn.

The scenarios the daemon exists for: many concurrent clients querying
a moving fabric, mutations arriving over the wire and showing up on
the event stream, and the consistency auditor confirming the FM
reconverged afterwards.
"""

import json
import socket
import threading
import time
from concurrent.futures import Future

import pytest

from repro.service import ServiceError, start_service

#: Concurrent clients for the hammer test (the ISSUE's floor is 8).
CLIENT_COUNT = 8


def _wait_for(client, predicate, timeout=60.0, interval=0.02):
    """Poll ``status`` until ``predicate(status)`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.request("status")
        if predicate(status):
            return status
        time.sleep(interval)
    raise AssertionError(f"timed out waiting; last status: {status}")


class TestHandshake:
    def test_hello_banner_and_ping(self):
        with start_service("mesh9") as handle:
            with handle.client() as client:
                assert client.hello["schema"] == "repro/service/v1.2"
                assert client.hello["topology"] == "3x3 mesh"
                assert client.request("ping")["schema"] == client.schema

    def test_unknown_op_keeps_connection_alive(self):
        with start_service("mesh9") as handle:
            with handle.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.request("frobnicate")
                assert err.value.code == "unknown-op"
                assert client.request("ping")["schema"]

    def test_topologies_endpoint_matches_cli_registry(self):
        from repro.topology.registry import topology_catalog
        with start_service("mesh9") as handle:
            with handle.client() as client:
                result = client.request("topologies")
                assert result["catalog"] == topology_catalog()


class TestInputGuards:
    """Malformed request lines are answered on the same connection,
    which then serves the next request."""

    BAD_LINES = [
        (b"{not json", None, "bad-json", ""),
        (b"[1,2]", None, "bad-request", "must be a JSON object"),
        (b'"str"', None, "bad-request", "must be a JSON object"),
        (b'{"id":3,"op":5}', 3, "bad-request", "string 'op'"),
        (b'{"id":4}', 4, "bad-request", "string 'op'"),
    ]

    def test_each_bad_line_is_answered_and_the_connection_serves_on(self):
        with start_service("mesh9") as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=60) as sock:
                wire = sock.makefile("rwb")
                wire.readline()  # hello
                for ping, (line, request_id, code, message) in enumerate(
                        self.BAD_LINES, start=100):
                    wire.write(line + b"\n")
                    wire.write(b'{"id":%d,"op":"ping"}\n' % ping)
                    wire.flush()
                    answer = json.loads(wire.readline())
                    assert answer["id"] == request_id, line
                    assert answer["ok"] is False, line
                    assert answer["error"]["code"] == code, line
                    assert message in answer["error"]["message"], line
                    after = json.loads(wire.readline())
                    assert after["id"] == ping and after["ok"] is True
            summary = handle.stop()
            assert summary["errors"] == len(self.BAD_LINES)
            assert summary["requests"] == len(self.BAD_LINES)

    def test_unsubscribe_without_a_subscription(self):
        with start_service("mesh9") as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=60) as sock:
                wire = sock.makefile("rwb")
                wire.readline()  # hello
                wire.write(b'{"op":"unsubscribe"}\n')
                wire.flush()
                answer = json.loads(wire.readline())
                assert answer == {"id": None, "ok": True,
                                  "result": {"subscribed": False}}
            assert handle.stop()["errors"] == 0


def _raw(handle, rcvbuf=None):
    """A socket past the hello banner (``rcvbuf``: its receive buffer,
    set before connecting so the window stays that small)."""
    sock = socket.socket()
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(60)
    sock.connect((handle.host, handle.port))
    wire = sock.makefile("rb")
    assert json.loads(wire.readline())["event"] == "hello"
    return sock, wire


def _on_loop(handle, fn):
    """``fn()``, run on the service loop's thread."""
    done = Future()

    def run():
        try:
            done.set_result(fn())
        except Exception as exc:
            done.set_exception(exc)

    handle.service.call_soon_threadsafe(run)
    return done.result(60)


def _write_buffers(handle):
    """Bytes each open server-side connection holds for its peer, read
    on the loop's thread."""
    return _on_loop(handle, lambda: [
        len(connection._out)
        for connection in handle.service._connections
        if not connection.closing])


def _shrink_send_buffer(handle, sock, size=4096):
    """Give the server side of ``sock``'s connection a ``size``-byte
    kernel send buffer, set on the loop's thread.  A set size also stops
    the kernel autotuning it (up to the ``tcp_wmem`` maximum, 4 MiB by
    default, enough for thousands of answers), so what the server holds
    back for a peer that does not read is its own doing."""
    peer = sock.getsockname()

    def shrink():
        for connection in handle.service._connections:
            server_side = connection.sock
            if server_side.getpeername() == peer:
                server_side.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, size)
                return True
        return False

    assert _on_loop(handle, shrink), "no server-side connection for that socket"


def _until_still(read, seconds=0.3, timeout=60.0):
    """``read()`` once it has not changed for ``seconds``."""
    deadline = time.monotonic() + timeout
    value = read()
    while time.monotonic() < deadline:
        time.sleep(seconds)
        now = read()
        if now == value:
            return value
        value = now
    raise AssertionError(f"still moving after {timeout} s: {value}")


#: What a connection may hold for a peer that does not read: the
#: connection's high-water mark (64 KiB) plus the write that crossed it.
WRITE_BOUND = 2 * 64 * 1024


class TestFrontEndEdges:
    """What the front-end does at the edges of the byte stream and of
    the peer's behaviour."""

    def test_a_request_one_byte_per_send_gets_one_response(self):
        with start_service("mesh9") as handle:
            sock, wire = _raw(handle)
            with sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for byte in b'{"id":1,"op":"ping"}\n':
                    sock.send(bytes([byte]))
                    time.sleep(0.001)
                sock.sendall(b'{"id":2,"op":"ping"}\n')
                assert json.loads(wire.readline())["id"] == 1
                assert json.loads(wire.readline())["id"] == 2
            assert handle.stop()["requests"] == 2

    def test_a_miss_then_a_hit_in_one_segment_are_answered_in_order(self):
        from .test_memo import Park, _until, quiesce

        with start_service("mesh9") as handle:
            quiesce(handle)
            driver = handle.driver
            sock, wire = _raw(handle)
            with sock:
                sock.sendall(b'{"id":1,"op":"status"}\n')
                assert json.loads(wire.readline())["id"] == 1
                hits = driver.memo_hits
                with Park(driver):
                    # topology: queued behind the park; status: a hit.
                    sock.sendall(b'{"id":2,"op":"topology"}\n'
                                 b'{"id":3,"op":"status"}\n')
                    _until(lambda: driver._commands.qsize() == 1,
                           "the miss to queue")
                    sock.settimeout(0.2)
                    with pytest.raises(socket.timeout):
                        sock.recv(1)
                    sock.settimeout(60)
                answers = [json.loads(wire.readline()) for _ in range(2)]
                assert [a["id"] for a in answers] == [2, 3]
                assert all(a["ok"] for a in answers)
                assert driver.memo_hits == hits + 1

    def test_an_unterminated_last_line_is_answered_at_end_of_stream(self):
        with start_service("mesh9") as handle:
            sock, wire = _raw(handle)
            with sock:
                sock.sendall(b'{"id":1,"op":"ping"}\n{"id":2,"op":"ping"}')
                sock.shutdown(socket.SHUT_WR)
                assert json.loads(wire.readline())["id"] == 1
                last = json.loads(wire.readline())
                assert last["id"] == 2 and last["ok"]
                assert wire.readline() == b""  # then the server closes
            assert handle.stop()["requests"] == 2

    @pytest.mark.parametrize("reset", [False, True])
    def test_a_client_gone_while_its_request_is_in_flight(self, reset):
        from .test_memo import Park, _until, quiesce

        with start_service("mesh9") as handle:
            quiesce(handle)
            driver, service = handle.driver, handle.service
            before = service.requests + service.errors
            with Park(driver):
                # A read miss, then a mutation.
                for queued, op in enumerate(("metrics", "rediscover"), 1):
                    sock, _ = _raw(handle)
                    sock.sendall(b'{"id":1,"op":"%s"}\n' % op.encode())
                    _until(lambda: driver._commands.qsize() == queued,
                           "the request to queue")
                    if reset:
                        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        b"\1\0\0\0\0\0\0\0")
                    sock.close()
            _until(lambda: service.requests + service.errors == before + 2,
                   "both requests to be answered")
            with handle.client() as client:
                assert "sim_time" in client.request("status")
            handle.stop()
            # No callback of the loop raised on the way.
            assert service.failures == 0

    def test_a_callback_that_raises_closes_its_connection_only(
            self, monkeypatch):
        from repro.service import server

        def request(connection, line):
            raise RuntimeError("a handler bug")

        with start_service("mesh9") as handle:
            sock, wire = _raw(handle)
            with sock, handle.client() as bystander:
                monkeypatch.setattr(server._Connection, "_request", request)
                sock.sendall(b'{"id":1,"op":"ping"}\n')
                assert wire.readline() == b""  # closed, not answered
                monkeypatch.undo()
                assert bystander.request("ping")["schema"]
                with handle.client() as newcomer:
                    assert newcomer.request("ping")["schema"]
            summary = handle.stop()
        assert handle.service.failures == 1
        assert summary["requests"] == 2

    def test_a_subscriber_that_never_reads_loses_events_not_memory(self):
        """Mutations, and a publisher as busy as a storm on a large
        fabric would keep the sim thread: more events than any
        buffer on the way holds (the socket's own included)."""
        pairs, bulk, pad = 20, 8000, "x" * 1500
        with start_service("mesh9") as handle:
            publish = handle.service.hub.publish
            sock, wire = _raw(handle, rcvbuf=4096)
            with sock, handle.client() as mutator, \
                    handle.client() as reader:
                sock.sendall(b'{"id":1,"op":"subscribe"}\n')
                assert json.loads(wire.readline())["result"] == {
                    "subscribed": True}
                largest = 0
                for i in range(pairs):
                    mutator.request("remove_device", name="sw_1_1")
                    mutator.request("restore_device", name="sw_1_1")
                    for n in range(bulk // pairs):
                        publish({"event": "storm", "n": n, "pad": pad})
                    assert "sim_time" in reader.request("status")
                    largest = max(largest, *_write_buffers(handle))
                _until_still(lambda: handle.service.hub.published)
                largest = max(largest, *_write_buffers(handle))
                assert handle.service.summary()["events_dropped"] > 0
                assert largest <= WRITE_BOUND
                assert "sim_time" in reader.request("topology")

    def test_a_pipelining_client_that_does_not_read_is_held_back(self):
        count = 2000
        with start_service("mesh9") as handle:
            sock, wire = _raw(handle, rcvbuf=4096)
            # Without it the kernel, not the connection's bound, would
            # decide whether all the answers fit.
            _shrink_send_buffer(handle, sock)
            with sock:
                sock.sendall(b"".join(b'{"id":%d,"op":"topology"}\n' % i
                                      for i in range(1, count + 1)))
                served = _until_still(lambda: handle.service.requests)
                assert served < count
                assert max(_write_buffers(handle)) <= WRITE_BOUND
                ids = [json.loads(wire.readline())["id"]
                       for _ in range(count)]
                assert ids == list(range(1, count + 1))
            assert handle.stop()["requests"] == count


class TestConcurrentClients:
    def test_eight_clients_hammer_churning_fabric(self):
        with start_service("mesh9", churn=True, seed=7) as handle:
            errors = []
            done = []

            def hammer(index):
                try:
                    with handle.client() as client:
                        for i in range(25):
                            op = ("status", "topology",
                                  "metrics")[i % 3]
                            result = client.request(op)
                            assert "sim_time" in result
                            if op == "topology":
                                for device in result["devices"]:
                                    assert set(device) == {
                                        "dsn", "type", "nports",
                                        "fm_capable"}
                    done.append(index)
                except Exception as exc:
                    errors.append(f"client {index}: {exc}")

            threads = [
                threading.Thread(target=hammer, args=(i,), daemon=True)
                for i in range(CLIENT_COUNT)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            assert len(done) == CLIENT_COUNT
            assert handle.service.connections_accepted >= CLIENT_COUNT
            # The sim actually advanced while serving.
            assert handle.driver.events_stepped > 0


class TestChurnBeyondTheTurnPool:
    def test_mesh64_churn_does_not_kill_the_kernel(self):
        """mesh64's far corner is one detour short of the 64 turn bits:
        with churn seed 1 the faults after the 11th leave a device reachable only
        by a 17-hop route, which used to end the driver thread with a
        ``TurnPoolError``.  Such a target is now skipped and counted."""
        with start_service("mesh64", churn=True, seed=1) as handle:
            deadline = time.monotonic() + 60.0
            while (len(handle.injector.log) < 40
                   and handle.driver.crashed is None
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert handle.driver.crashed is None
            assert len(handle.injector.log) >= 40
            with handle.client() as client:
                metrics = client.request("metrics")["metrics"]
                assert metrics["fm.targets_out_of_reach"]["value"] > 0


class TestServeChurnNoticesADeadKernel:
    def test_measure_counts_a_failure_when_the_driver_died(
            self, monkeypatch):
        """The benchmark's ``serve_churn`` workload (``perf/``) must not
        report a clean window in which the driver thread had ended:
        reads keep being answered from the last snapshot, so no client
        errs, and only the workload's own check sees the dead kernel."""
        import importlib.util
        import sys
        from pathlib import Path

        import repro.service
        perf = Path(__file__).resolve().parents[2] / "perf"
        monkeypatch.syspath_prepend(str(perf))  # its ``layers`` import
        spec = importlib.util.spec_from_file_location(
            "perf_workloads", perf / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "perf_workloads", workloads)
        spec.loader.exec_module(workloads)

        handles = []

        def recorded_service(topology, **kwargs):
            handles.append(start_service(topology, **kwargs))
            return handles[-1]

        def boom():
            raise RuntimeError("boom")

        class DoomedChurn(workloads.ServeChurn):
            def prepare(self):
                super().prepare()
                self.handle.driver.call(
                    lambda setup: setup.env.call_later(1e-6, boom))

        monkeypatch.setattr(repro.service, "start_service",
                            recorded_service)
        workload = DoomedChurn(0, "mesh9", requests=25, mutate_every=10,
                               direct_cycles=3)
        report = workloads.measure(workload, seconds=0.0, trace=False)
        assert [h.driver.crashed is not None for h in handles] == [True]
        assert report["failed"] > 0
        assert any(line.startswith("driver crashed: RuntimeError('boom')")
                   for line in report["failures"]), report["failures"]


class TestMutationRoundTrip:
    def test_hot_remove_streams_events_and_audits_clean(self):
        with start_service("mesh9") as handle:
            with handle.client() as client:
                client.subscribe()
                _wait_for(client, lambda s: s["ready"])
                removed = client.request("remove_device",
                                         name="sw_1_1")
                assert removed["removed"] == "sw_1_1"

                # The mutation itself is feed-visible...
                event = client.next_event(timeout=30)
                seen = {event["event"]}
                # ...and the FM notices via PI-5 and rediscovers.
                deadline = time.monotonic() + 60
                while ("pi5" not in seen
                       and time.monotonic() < deadline):
                    seen.add(client.next_event(timeout=30)["event"])
                assert "mutation" in seen
                assert "pi5" in seen

                status = _wait_for(
                    client,
                    lambda s: (s["discoveries"] >= 2
                               and not s["is_discovering"]),
                )
                # The switch and its now-unreachable endpoint are gone.
                assert status["devices_known"] == 16

                audit = client.request("audit")
                assert audit["ok"] is True
                assert audit["differences"] == 0

    def test_bad_mutation_reports_error(self):
        with start_service("mesh9") as handle:
            with handle.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.request("remove_device", name="no_such")
                assert err.value.code == "bad-mutation"


class TestRediscoverDuringABurst:
    """A partial manager's burst is a walk ``rediscover``
    must not start a discovery on top of (it answered
    ``{"started": true}``, cleared the database under the burst, and
    the driver then read ``crashed == DatabaseError('unknown device
    ...')`` and served a frozen simulation from there on)."""

    @staticmethod
    def _start_burst(setup):
        setup.fabric.remove_device("sw_2_2")
        while not setup.fm.busy:
            setup.env.step()

    @pytest.mark.parametrize("force", [False, True])
    def test_the_op_is_answered_and_the_kernel_survives(self, force):
        from repro.experiments.runner import database_matches_fabric

        from .test_memo import Park, _until, quiesce, wires

        with start_service("mesh16", manager="partial") as handle, \
                wires(handle, 1) as (wire,):
            quiesce(handle)
            driver = handle.driver
            # The op queues behind the parked thread and runs before
            # the next kernel event: in the middle of the burst.
            with Park(driver, first=self._start_burst):
                wire.send("rediscover", force=force)
                _until(lambda: driver._commands.qsize() == 1,
                       "the op to queue")
            answer = json.loads(wire.recv())
            if force:
                assert answer["ok"] and answer["result"]["started"]
            else:
                assert not answer["ok"]
                assert answer["error"]["code"] == "busy"
            quiesce(handle)
            assert driver.crashed is None
            status = wire.result("status")
            assert status["ready"] and status["driver"]["crashed"] is None
            assert status["discoveries"] == 2
            assert status["last_discovery"]["algorithm"] == (
                "parallel" if force else "partial")
            assert len(wire.result("topology")["devices"]) \
                == status["devices_known"] == 30  # sw_2_2 and its endpoint
            assert driver.call(database_matches_fabric)


class TestRetainedHistory:
    def test_a_long_lived_fm_keeps_one_timeline(self):
        """Every discovery is counted and summarised for good; the
        per-packet Fig. 7(a) series only of the newest one, or the
        daemon grows with every packet it ever processed."""
        rounds = 32
        with start_service("mesh9") as handle:
            with handle.client() as client:
                done = _wait_for(client, lambda s: s["ready"])["discoveries"]
                largest = 0
                for _ in range(rounds):
                    client.request("rediscover", force=True)
                    done += 1
                    _wait_for(client, lambda s: s["ready"]
                              and s["discoveries"] == done)
                    kept = handle.driver.call(lambda setup: [
                        len(stats.packet_timeline)
                        for stats in setup.fm.history])
                    largest = max(largest, kept[-1])
                    assert kept[-1] > 0 and not any(kept[:-1])
                status = client.request("status")
                assert status["discoveries"] == done > rounds
                assert status["last_discovery"]["completions_received"] \
                    == kept[-1] <= largest


class TestShutdown:
    def test_shutdown_op_stops_the_service(self):
        handle = start_service("mesh9")
        try:
            with handle.client() as client:
                assert client.request("shutdown")["stopping"] is True
            handle._thread.join(timeout=30)
            assert not handle._thread.is_alive()
            with pytest.raises(OSError):
                handle.client(timeout=2.0)
        finally:
            handle.stop()

    def test_stop_is_idempotent_and_stops_driver(self):
        handle = start_service("mesh9", churn=True)
        summary = handle.stop()
        assert handle.stop() == summary
        assert not handle.driver.running


class TestFailoverVerbs:
    def test_verbs_require_a_standby(self):
        with start_service("mesh9") as handle:
            with handle.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.kill_fm()
                assert err.value.code == "no-standby"
                with pytest.raises(ServiceError) as err:
                    client.promote_standby()
                assert err.value.code == "no-standby"

    def test_kill_fm_triggers_takeover_and_streams_the_outcome(self):
        with start_service("mesh16", manager="partial",
                           standby=True) as handle:
            with handle.client() as client:
                client.subscribe()
                # Ready, and the mirror holds a copy to install.
                _wait_for(client, lambda s: s["ready"]
                          and handle.standby.mirror_syncs > 0)
                out = client.kill_fm()
                assert out["killed"]
                assert "mode" not in out
                event = client.next_event(timeout=60)
                while not (event.get("event") == "failover"
                           and event.get("phase") == "takeover_complete"):
                    event = client.next_event(timeout=60)
                assert event["fm"] == out["standby"]
                assert event["mode"] == "warm"
                assert event["recovery_time"] > 0
                # The served FM is now the promoted standby; the fabric
                # it sees (minus the dead primary host) audits clean.
                status = _wait_for(
                    client, lambda s: s["ready"] and not s["is_discovering"]
                )
                assert status["devices_known"] > 0
                audit = client.request("audit")
                assert audit["ok"]
                # A second kill/promote is rejected: the standby is
                # already the active manager.
                with pytest.raises(ServiceError) as err:
                    client.promote_standby()
                assert err.value.code == "bad-mutation"
                with pytest.raises(ServiceError) as err:
                    client.kill_fm()
                assert err.value.code == "bad-mutation"

    def test_explicit_promote_without_a_kill(self):
        with start_service("mesh9", manager="partial",
                           standby=True) as handle:
            with handle.client() as client:
                client.subscribe()
                _wait_for(client, lambda s: s["ready"]
                          and handle.standby.mirror_syncs > 0)
                out = client.promote_standby()
                assert out["promoting"] is True
                assert "mode" not in out
                event = client.next_event(timeout=60)
                while not (event.get("event") == "failover"
                           and event.get("phase") == "takeover_complete"):
                    event = client.next_event(timeout=60)
                assert event["mode"] == "warm"
                _wait_for(client, lambda s: s["ready"])


class TestStandbyStartedMidWalk:
    @pytest.mark.parametrize("manager", ("full", "partial"))
    def test_does_not_promote_while_the_primary_lives(self, manager):
        # The service starts the standby before the primary's initial
        # walk has run: its first heartbeats queue behind the walk's
        # completions at the primary.  Slow is not silent.
        with start_service("mesh16", manager=manager,
                           standby=True) as handle:
            standby = handle.standby
            with handle.client() as client:
                status = _wait_for(client, lambda s: s["ready"])
                # Both started at time 0: the first heartbeat went out
                # mid-walk.
                walk_end = status["last_discovery"]["discovery_time"]
                assert walk_end > standby.heartbeat_interval
                # Twice the time three missed heartbeats take.
                _wait_for(client,
                          lambda s: s["sim_time"] > walk_end + 0.1)
                assert not standby.active
                assert standby.heartbeats_answered > 0
