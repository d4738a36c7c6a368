"""Live-service tests: real sockets, real threads, real churn.

The scenarios the daemon exists for: many concurrent clients querying
a moving fabric, mutations arriving over the wire and showing up on
the event stream, and the consistency auditor confirming the FM
reconverged afterwards.
"""

import json
import threading
import time

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


class TestServiceBenchNoticesADeadKernel:
    def test_run_bench_raises_when_the_kernel_died_in_the_window(
            self, monkeypatch):
        """``benchmarks/bench_service.py`` used to report throughput
        for a window in which the driver thread had ended: reads keep
        being answered from the last snapshot, so no client errs."""
        import importlib.util
        from pathlib import Path
        path = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "bench_service.py")
        spec = importlib.util.spec_from_file_location("bench_service", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)

        def boom():
            raise RuntimeError("boom")

        def doomed_service(topology, **kwargs):
            handle = start_service(topology, **kwargs)
            handle.driver.call(
                lambda setup: setup.env.call_later(1e-6, boom))
            return handle

        monkeypatch.setattr(bench, "start_service", doomed_service)
        with pytest.raises(RuntimeError, match="kernel died.*boom"):
            bench.run_bench("mesh9", clients=2, duration=0.5, seed=0)
        monkeypatch.setattr(bench, "start_service", start_service)
        assert bench.run_bench(
            "mesh9", clients=2, duration=0.5, seed=0)["queries"] > 0


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
                           standby="warm") as handle:
            with handle.client() as client:
                client.subscribe()
                _wait_for(client, lambda s: s["ready"])
                out = client.kill_fm()
                assert out["killed"]
                assert out["mode"] == "warm"
                event = client.next_event(timeout=60)
                while not (event.get("event") == "failover"
                           and event.get("phase") == "takeover_complete"):
                    event = client.next_event(timeout=60)
                assert event["fm"] == out["standby"]
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
                           standby="cold") as handle:
            with handle.client() as client:
                client.subscribe()
                _wait_for(client, lambda s: s["ready"])
                out = client.promote_standby()
                assert out["promoting"] is True
                event = client.next_event(timeout=60)
                while not (event.get("event") == "failover"
                           and event.get("phase") == "takeover_complete"):
                    event = client.next_event(timeout=60)
                assert event["mode"] == "cold"
                _wait_for(client, lambda s: s["ready"])
