"""Golden-response tests for the service API handlers.

These run the handlers in-process against a fully-discovered 3x3 mesh
(deterministic: no churn, no wall clock), so the response documents
are stable and can be asserted structurally — the JSON the wire would
carry, without the wire.
"""

import json
import time

import pytest

from repro.experiments.runner import build_simulation, run_until_ready
from repro.service import api
from repro.service.driver import DriverStopped, SimulationDriver
from repro.topology.registry import (
    describe_topology,
    resolve_topology,
    topology_catalog,
)


@pytest.fixture(scope="module")
def ready_setup():
    setup = build_simulation(resolve_topology("mesh9"))
    run_until_ready(setup)
    return setup


@pytest.fixture(scope="module")
def driver(ready_setup):
    # Not started: handler tests call the functions directly, so the
    # sim state stays frozen at the post-discovery instant.
    return SimulationDriver(ready_setup)


def _json_roundtrip(document):
    """Every response must be plain-JSON serialisable."""
    return json.loads(json.dumps(document))


class TestStatus:
    def test_golden_shape(self, ready_setup, driver):
        result = _json_roundtrip(
            api.op_status(ready_setup, driver, {}))
        assert result["topology"] == "3x3 mesh"
        assert result["algorithm"] == "parallel"
        assert result["manager"] == "full"
        assert result["ready"] is True
        assert result["is_discovering"] is False
        assert result["discoveries"] == 1
        assert result["devices_known"] == 18
        assert result["last_discovery"]["devices_found"] == 18
        assert result["churn"] is None
        assert result["driver"]["crashed"] is None


class TestTopology:
    def test_golden_snapshot(self, ready_setup, driver):
        result = _json_roundtrip(
            api.op_topology(ready_setup, driver, {}))
        devices = result["devices"]
        assert len(devices) == 18
        kinds = [d["type"] for d in devices]
        assert kinds.count("switch") == 9
        assert kinds.count("endpoint") == 9
        assert devices == sorted(devices, key=lambda d: d["dsn"])
        # 3x3 mesh: 12 switch-switch links + 9 endpoint attachments.
        assert len(result["links"]) == 21
        dsns = {d["dsn"] for d in devices}
        for a_dsn, a_port, b_dsn, b_port in result["links"]:
            assert a_dsn in dsns and b_dsn in dsns
            assert (a_dsn, a_port) < (b_dsn, b_port)
        assert result["summary"]["devices"] == 18

    def test_matches_database(self, ready_setup, driver):
        result = api.op_topology(ready_setup, driver, {})
        db = ready_setup.fm.database
        assert {d["dsn"] for d in result["devices"]} == set(
            r.dsn for r in db.devices())


class TestPath:
    def test_endpoint_to_endpoint(self, ready_setup, driver):
        result = _json_roundtrip(api.op_topology(ready_setup, driver, {}))
        endpoints = [d["dsn"] for d in result["devices"]
                     if d["type"] == "endpoint"]
        path = _json_roundtrip(api.op_path(
            ready_setup, driver, {"src": endpoints[0],
                                  "dst": endpoints[-1]}))
        assert path["hops"][0] == endpoints[0]
        assert path["hops"][-1] == endpoints[-1]
        assert path["length"] == len(path["hops"]) - 1
        # Both endpoints hang off the mesh, so the FM programmed a
        # source route to the destination.
        assert path["fm_route"] is not None
        assert path["fm_route"]["hops"]

    def test_unknown_dsn(self, ready_setup, driver):
        with pytest.raises(api.ApiError) as err:
            api.op_path(ready_setup, driver,
                        {"src": 0xDEAD, "dst": 0xBEEF})
        assert err.value.code == "unknown-dsn"

    def test_bad_params(self, ready_setup, driver):
        with pytest.raises(api.ApiError) as err:
            api.op_path(ready_setup, driver, {"src": "ep_0_0"})
        assert err.value.code == "bad-request"


class TestMetrics:
    def test_scrape(self, ready_setup, driver):
        result = _json_roundtrip(api.op_metrics(ready_setup, driver, {}))
        names = set(result["metrics"])
        assert "service.events_stepped" in names
        assert "service.commands_run" in names
        assert result["metrics"]["service.events_stepped"]["value"] == 0

    def test_kernel_gauges_are_the_environments_vitals(self, ready_setup,
                                                       driver):
        metrics = _json_roundtrip(
            api.op_metrics(ready_setup, driver, {}))["metrics"]
        vitals = ready_setup.env.vitals()
        assert vitals["events_executed"] > 0
        assert {name: metrics[name]["value"] for name in metrics
                if name.startswith("kernel.")} == {
            f"kernel.{key}": value for key, value in vitals.items()}

    def test_cpu_seconds_are_sampled_once_per_version(self):
        setup = build_simulation(resolve_topology("mesh9"))
        run_until_ready(setup)
        driver = SimulationDriver(setup).start()

        def cpu():
            result = api.call_op(driver, "metrics")
            return result["version"], tuple(
                result["metrics"][name]["value"] for name in
                ("service.cpu_s.driver", "service.cpu_s.process"))

        try:
            # The discovered fabric is idle: the version stays put.
            version, first = cpu()
            assert cpu() == (version, first)
            assert all(value > 0 for value in first)
            api.call_op(driver, "start_traffic", {"load": 0.1})
            later_version, later = cpu()
        finally:
            driver.stop()
        assert later_version > version
        assert all(b >= a for a, b in zip(first, later))


class TestTopologies:
    def test_catalog_and_describe(self, driver):
        result = _json_roundtrip(api.op_topologies(
            None, driver, {"describe": "mesh9"}))
        aliases = {e["alias"] for e in result["catalog"]["table1"]}
        assert "mesh9" in aliases and "torus100" in aliases
        assert result["described"]["devices"] == 18

    def test_unknown_describe(self, driver):
        with pytest.raises(api.ApiError) as err:
            api.op_topologies(None, driver, {"describe": "wat"})
        assert err.value.code == "unknown-topology"


class TestRegistryHelpers:
    def test_catalog_covers_table1(self):
        catalog = topology_catalog()
        assert len(catalog["table1"]) == 13
        assert catalog["families"]

    def test_describe_consistent_with_spec(self):
        info = describe_topology("mesh64")
        spec = resolve_topology("mesh64")
        assert info["devices"] == spec.total_devices
        assert info["switches"] == spec.num_switches
        assert info["links"] == len(spec.links)
        assert info["canonical"] == "8x8 mesh"

    def test_describe_unknown_raises(self):
        with pytest.raises(ValueError):
            describe_topology("not-a-topology")


class TestDispatch:
    def test_unknown_op(self):
        with pytest.raises(api.ApiError) as err:
            api.handler_for("frobnicate")
        assert err.value.code == "unknown-op"

    def test_call_op_runs_on_sim_thread(self, ready_setup):
        driver = SimulationDriver(ready_setup).start()
        try:
            status = api.call_op(driver, "status")
            assert status["devices_known"] == 18
            assert driver.commands_run >= 1
        finally:
            driver.stop()

    def test_stopped_driver_rejects(self, ready_setup):
        driver = SimulationDriver(ready_setup).start()
        driver.stop()
        with pytest.raises(DriverStopped):
            api.call_op(driver, "status")


class TestServedCompletions:
    def test_stored_completions_do_not_grow_with_churn_cycles(self):
        """A long-lived fabric's devices hold a completion only while a
        copy of its request can still arrive, so the store does not
        grow with the requests served: remove/restore cycles of one
        switch through the API, each run to quiescence, and the
        completions stored over every entity after 12 cycles are no
        more than after 2."""
        setup = build_simulation(resolve_topology("mesh9"))
        run_until_ready(setup)

        def quiet(setup):
            return setup.env.peek() == float("inf") and not setup.fm.busy

        def stored(setup):
            return sum(len(entity._served_replies)
                       for entity in setup.entities.values())

        driver = SimulationDriver(setup).start()
        counts = {}
        try:
            for cycle in range(1, 13):
                for verb in ("remove_device", "restore_device"):
                    api.call_op(driver, verb, {"name": "sw_1_1"})
                    deadline = time.monotonic() + 30
                    while not driver.call(quiet):
                        assert time.monotonic() < deadline
                        time.sleep(1e-3)
                counts[cycle] = driver.call(stored)
            requests = driver.call(lambda s: s.fm.counters["requests_sent"])
        finally:
            driver.stop()
        assert requests > 12 * 300  # every cycle rediscovers the mesh
        assert counts[12] <= counts[2]


class TestTrafficVerbs:
    """v1.1 verbs, run in-process against a private simulation (these
    mutate sim state, so the module-scoped fixture stays untouched)."""

    @pytest.fixture()
    def fresh(self):
        setup = build_simulation(resolve_topology("mesh9"))
        run_until_ready(setup)
        return setup, SimulationDriver(setup)

    def test_schema_is_v1_2(self, fresh):
        setup, driver = fresh
        assert api.SCHEMA == "repro/service/v1.2"
        ping = api.op_ping(setup, driver, {})
        assert ping["schema"] == "repro/service/v1.2"

    def test_stop_without_start(self, fresh):
        setup, driver = fresh
        with pytest.raises(api.ApiError) as err:
            api.op_stop_traffic(setup, driver, {})
        assert err.value.code == "no-traffic"

    def test_bad_specs_rejected(self, fresh):
        setup, driver = fresh
        for params in ({"load": 1.5}, {"load": 0.0}, {"tc": 9},
                       {"arrival": "diurnal"}, {"seed": "zero"}):
            with pytest.raises(api.ApiError) as err:
                api.op_start_traffic(setup, driver, params)
            assert err.value.code == "bad-request", params

    def test_lifecycle_and_metrics(self, fresh):
        setup, driver = fresh
        started = _json_roundtrip(api.op_start_traffic(
            setup, driver,
            {"load": 0.4, "packet_bytes": 128, "seed": 2, "id": 1},
        ))
        assert started["running"] is True
        assert started["spec"]["load"] == 0.4
        with pytest.raises(api.ApiError) as err:
            api.op_start_traffic(setup, driver, {"load": 0.2})
        assert err.value.code == "traffic-running"
        # Advance the (single-threaded, unstarted-driver) sim directly.
        setup.env.run(until=setup.env.now + 5e-4)
        metrics = _json_roundtrip(
            api.op_metrics(setup, driver, {}))["metrics"]
        assert metrics["traffic.offered_load"]["value"] == 0.4
        assert metrics["traffic.packets_injected"]["value"] > 0
        stopped = _json_roundtrip(api.op_stop_traffic(setup, driver, {}))
        assert stopped["stopped"] is True
        assert stopped["stats"]["packets_injected"] > 0
        # A stopped workload can be replaced by a new one.
        again = api.op_start_traffic(setup, driver, {"load": 0.1})
        assert again["running"] is True
