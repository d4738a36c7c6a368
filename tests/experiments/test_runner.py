"""Tests for the single-experiment runner's bookkeeping."""

import pytest

from repro.experiments.io import spec_to_dict
from repro.experiments.runner import (
    MAX_SIM_TIME,
    build_simulation,
    run_until_discovery_count,
)
from repro.experiments.scenario import Scenario
from repro.sim import Deferred
from repro.topology import make_mesh


class TestResultDict:
    def test_asdict_includes_family(self):
        result = Scenario(kind="change",
                          topology=spec_to_dict(make_mesh(2, 2)),
                          seed=0).run()
        info = result.asdict()
        assert info["family"] == "mesh"
        assert info["topology"] == "2x2 mesh"


class TestHorizonTimeout:
    def test_horizon_defused_after_success(self):
        setup = build_simulation(make_mesh(2, 2))
        run_until_discovery_count(setup, 1)
        # Cancellation is lazy: the horizon timer lingers on the heap
        # as a tombstone (one cancel never compacts), but it must be
        # cancelled so it can never fire or advance the clock.
        horizons = [
            entry[3] for entry in setup.env._queue
            if isinstance(entry[3], Deferred) and entry[0] == MAX_SIM_TIME
        ]
        assert len(horizons) == 1
        assert horizons[0]._cancelled

    def test_horizon_firing_raises_and_unhooks(self):
        setup = build_simulation(make_mesh(2, 2))
        hooks = list(setup.fm.on_discovery_complete)
        with pytest.raises(TimeoutError):
            run_until_discovery_count(setup, 1, horizon=1e-9)
        assert setup.env.now == 1e-9
        assert setup.fm.on_discovery_complete == hooks
        # The expired wait poisons nothing: the same run can go on.
        assert run_until_discovery_count(setup, 1) is setup.fm.history[0]

    def test_bare_run_does_not_spin_to_horizon(self):
        setup = build_simulation(make_mesh(2, 2))
        run_until_discovery_count(setup, 1)
        setup.env.run()  # drain whatever the simulation still holds
        assert setup.env.now < MAX_SIM_TIME / 2
