"""FaultInjector hold-until-busy timing: ``max_hold`` is an env-time
deadline, honored exactly (the tests set the hold poll and limit on
the instance: the injector derives both from ``mean_interval``)."""

import random

from repro.experiments.runner import build_simulation
from repro.topology import make_mesh
from repro.workloads.faults import FaultInjector


class _QuietFM:
    """An FM stub that never discovers (forces the full hold)."""

    busy = False


class _BusyFM:
    """An FM stub that is always mid-walk (no hold at all)."""

    busy = True


def _first_interval(seed: int, mean_interval: float) -> float:
    """The injector's first inter-fault delay for ``seed``."""
    return random.Random(seed).expovariate(1.0 / mean_interval)


class TestMaxHoldDeadline:
    def test_quiet_fabric_fires_exactly_at_the_deadline(self):
        # poll_interval (0.4 ms) does NOT divide max_hold (1.0 ms):
        # a per-poll tally would overshoot to 1.2 ms, but the env-time
        # deadline clamps the last wait to 0.2 ms and fires at exactly
        # interval + max_hold.
        mean, poll, hold = 1e-3, 0.4e-3, 1.0e-3
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        injector = FaultInjector(
            setup.fabric, mean_interval=mean, seed=5, fm=_QuietFM(),
            during_discovery=True,
        )
        injector.poll_interval, injector.max_hold = poll, hold
        done = injector.run(faults=1)
        log = setup.env.run(until=done)
        assert len(log) == 1
        expected = _first_interval(5, mean) + hold
        assert abs(log[0].time - expected) < 1e-12
        assert log[0].mid_discovery is False

    def test_busy_fm_fires_without_any_hold(self):
        mean = 1e-3
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        injector = FaultInjector(
            setup.fabric, mean_interval=mean, seed=5, fm=_BusyFM(),
            during_discovery=True,
        )
        done = injector.run(faults=1)
        log = setup.env.run(until=done)
        assert len(log) == 1
        assert abs(log[0].time - _first_interval(5, mean)) < 1e-12
        assert log[0].mid_discovery is True

    def test_hold_shorter_than_one_poll_still_respects_deadline(self):
        # max_hold below poll_interval: the single wait is clamped to
        # max_hold itself.
        mean, poll, hold = 1e-3, 5e-3, 0.3e-3
        setup = build_simulation(make_mesh(3, 3), auto_start=False)
        injector = FaultInjector(
            setup.fabric, mean_interval=mean, seed=5, fm=_QuietFM(),
            during_discovery=True,
        )
        injector.poll_interval, injector.max_hold = poll, hold
        done = injector.run(faults=1)
        log = setup.env.run(until=done)
        expected = _first_interval(5, mean) + hold
        assert abs(log[0].time - expected) < 1e-12


class TestFmKillPlane:
    def test_gating_off_keeps_the_schedule_bit_identical(self):
        # The random schedule draws from the four topology kinds only,
        # so an fm reference changes neither the candidate list nor the
        # RNG draw sequence: the seeded schedule matches an injector
        # that has no fm at all.
        logs = []
        for fm in (None, _QuietFM()):
            setup = build_simulation(make_mesh(3, 3), auto_start=False)
            injector = FaultInjector(
                setup.fabric, mean_interval=1e-3, seed=11, fm=fm,
            )
            done = injector.run(faults=6)
            log = setup.env.run(until=done)
            logs.append([(e.time, e.kind, e.target) for e in log])
        assert logs[0] == logs[1]

    def test_kill_then_restore_rewalks_the_fabric(self):
        from repro.experiments.runner import run_until_ready
        setup = build_simulation(make_mesh(3, 3))
        run_until_ready(setup)
        walks = len(setup.fm.history)
        injector = FaultInjector(
            setup.fabric, mean_interval=1e-3, seed=0, fm=setup.fm,
        )
        injector.kill_fm_now()
        assert injector.fm_down
        injector.kill_fm_now()  # idempotent: no second event
        assert [e.kind for e in injector.log] == ["kill_fm"]
        setup.env.run(until=setup.env.now + 2e-3)
        injector.restore_fm_now()
        injector.restore_fm_now()  # idempotent too
        setup.env.run(until=setup.env.now + 30e-3)
        assert not injector.fm_down
        assert [e.kind for e in injector.log] == ["kill_fm", "restart_fm"]
        assert injector.summary() == {"kill_fm": 1, "restart_fm": 1}
        # A rebooted manager walks the fabric on startup.
        assert len(setup.fm.history) > walks
