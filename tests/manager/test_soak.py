"""Soak tests: repeated random changes with continuous assimilation."""

import pytest

from repro.experiments.runner import (
    build_simulation,
    database_matches_fabric,
    run_until_ready,
)
from repro.manager import PARALLEL, FabricManager
from repro.protocols.entity import ManagementEntity
from repro.sim import Environment
from repro.topology import make_mesh, make_torus
from repro.workloads.faults import FaultInjector


def fm_attachment_switch(setup):
    neighbor = setup.fm.endpoint.ports[0].neighbor()
    return neighbor.device.name


def settle(setup, horizon=0.3):
    """Run until the FM is idle and the fabric quiet."""
    env = setup.env
    deadline = env.now + horizon
    while env.now < deadline:
        if env.peek() > deadline:
            break
        env.step()
    # Drain whatever discovery is still in flight.
    guard = 0
    while setup.fm.is_discovering and guard < 50:
        env.run(until=env.now + 20e-3)
        guard += 1


class TestFaultInjector:
    def test_schedule_is_reproducible(self):
        logs = []
        for _ in range(2):
            setup = build_simulation(make_mesh(3, 3), auto_start=False)
            injector = FaultInjector(setup.fabric, mean_interval=5e-3,
                                     seed=77)
            done = injector.run(faults=6)
            log = setup.env.run(until=done)
            logs.append([(e.kind, e.target) for e in log])
        assert logs[0] == logs[1]

    def test_protected_switch_never_removed(self):
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        injector = FaultInjector(setup.fabric, mean_interval=2e-3,
                                 protect={"sw_0_0"}, seed=3)
        done = injector.run(faults=15)
        log = setup.env.run(until=done)
        removed = [e.target for e in log if e.kind == "remove_switch"]
        assert "sw_0_0" not in removed
        assert len(log) > 0

    def test_validation(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        with pytest.raises(ValueError):
            FaultInjector(setup.fabric, mean_interval=0)
        injector = FaultInjector(setup.fabric)
        injector.run(faults=1)
        with pytest.raises(RuntimeError):
            injector.run(faults=1)


class TestImmediateStop:
    def test_stop_triggers_done_at_stop_time_with_partial_log(self):
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        env = setup.env
        injector = FaultInjector(setup.fabric, mean_interval=5e-3, seed=77)
        done = injector.run(faults=100)

        t_stop = 12e-3
        env.timeout(t_stop).callbacks.append(lambda _ev: injector.stop())
        log = env.run(until=done)

        # ``done`` fires exactly at the stop instant, not after the
        # pending exponential interval elapses.
        assert env.now == pytest.approx(t_stop)
        assert all(event.time <= t_stop for event in log)
        assert log == injector.log

        # No further faults are injected after the stop.
        count = len(injector.log)
        env.run()
        assert len(injector.log) == count

    def test_stop_before_first_fault_yields_empty_log(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        injector = FaultInjector(setup.fabric, mean_interval=1.0, seed=0)
        done = injector.run(faults=5)
        injector.stop()
        log = setup.env.run(until=done)
        assert log == []
        assert setup.env.now == 0.0

    def test_stop_after_completion_is_a_noop(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        injector = FaultInjector(setup.fabric, mean_interval=2e-3, seed=1)
        done = injector.run(faults=3)
        log = setup.env.run(until=done)
        assert len(log) == 3
        injector.stop()  # must not raise or re-trigger ``done``
        assert done.value == log


class TestSoakFullRediscovery:
    def test_fm_converges_after_many_changes(self):
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL)
        run_until_ready(setup)
        injector = FaultInjector(
            setup.fabric, mean_interval=40e-3,
            protect={fm_attachment_switch(setup)}, seed=11,
        )
        done = injector.run(faults=12)
        setup.env.run(until=done)
        settle(setup)

        assert len(injector.log) == 12
        assert len(setup.fm.history) >= 3  # plenty of assimilations ran
        assert database_matches_fabric(setup)

    def test_soak_on_torus_with_link_flaps(self):
        setup = build_simulation(make_torus(3, 3), algorithm=PARALLEL)
        run_until_ready(setup)
        injector = FaultInjector(
            setup.fabric, mean_interval=30e-3,
            protect={fm_attachment_switch(setup)}, seed=29,
        )
        done = injector.run(faults=10)
        setup.env.run(until=done)
        settle(setup)
        assert database_matches_fabric(setup)


class TestSoakPartialAssimilation:
    def test_partial_manager_converges_after_many_changes(self):
        env = Environment()
        spec = make_mesh(4, 4)
        fabric = spec.build(env)
        entities = {
            name: ManagementEntity(device)
            for name, device in fabric.devices.items()
        }
        fm = FabricManager(
            fabric.device(spec.fm_host), entities[spec.fm_host],
            assimilation="partial",
        )
        fabric.power_up()

        class Setup:
            pass

        setup = Setup()
        setup.env, setup.fabric, setup.fm = env, fabric, fm
        run_until_ready(setup)

        injector = FaultInjector(
            fabric, mean_interval=50e-3,
            protect={fm_attachment_switch(setup)}, seed=5,
        )
        done = injector.run(faults=10)
        env.run(until=done)
        # Let the last burst finish.
        for _ in range(60):
            if not fm.busy:
                break
            env.run(until=env.now + 20e-3)
        env.run(until=env.now + 50e-3)

        assert database_matches_fabric(setup)
        # Partial assimilation actually carried (some of) the load.
        partials = [s for s in fm.history if s.algorithm == "partial"]
        assert partials


class TestProtectionExpansion:
    def test_protected_endpoint_shields_attachment_switch(self):
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        attach = fm_attachment_switch(setup)
        injector = FaultInjector(
            setup.fabric, mean_interval=2e-3,
            protect={setup.fm.endpoint.name}, seed=9,
        )
        # The endpoint's attachment switch inherits the protection.
        assert attach in injector.protect
        done = injector.run(faults=25)
        log = setup.env.run(until=done)
        assert log
        for event in log:
            if event.kind in ("remove_switch", "restore_switch"):
                assert event.target != attach
            else:
                assert attach not in event.target.split("<->")

    def test_protecting_a_switch_shields_its_links(self):
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        injector = FaultInjector(
            setup.fabric, mean_interval=2e-3, protect={"sw_1_1"}, seed=4,
        )
        done = injector.run(faults=25)
        log = setup.env.run(until=done)
        flapped = [
            e.target for e in log if e.kind in ("fail_link", "restore_link")
        ]
        assert flapped  # churn did exercise links...
        for target in flapped:
            assert "sw_1_1" not in target.split("<->")  # ...never these


class TestDuringDiscoveryMode:
    def test_requires_an_fm_to_observe(self):
        setup = build_simulation(make_mesh(2, 2), auto_start=False)
        with pytest.raises(ValueError):
            FaultInjector(setup.fabric, during_discovery=True)

    def test_faults_land_mid_discovery(self):
        setup = build_simulation(make_mesh(4, 4), algorithm=PARALLEL)
        run_until_ready(setup)
        injector = FaultInjector(
            setup.fabric, mean_interval=2e-3,
            protect={setup.fm.endpoint.name}, seed=0,
            fm=setup.fm, during_discovery=True,
        )
        done = injector.run(faults=6)
        setup.env.run(until=done)
        assert len(injector.log) == 6
        assert injector.mid_discovery_faults >= 1
        assert injector.mid_discovery_faults == sum(
            1 for e in injector.log if e.mid_discovery
        )
        settle(setup)

    def test_hold_is_bounded_on_a_quiet_fabric(self):
        # The first fault finds a quiet, settled fabric — there is no
        # walk to overlap until a fault provokes one.  max_hold must
        # bound that wait so the schedule always completes.
        setup = build_simulation(make_mesh(2, 2), algorithm=PARALLEL)
        run_until_ready(setup)
        injector = FaultInjector(
            setup.fabric, mean_interval=1e-3,
            protect={setup.fm.endpoint.name}, seed=1,
            fm=setup.fm, during_discovery=True,
        )
        injector.max_hold = 4e-3
        done = injector.run(faults=3)
        setup.env.run(until=done)
        assert len(injector.log) == 3
