"""The same-epoch fencing duel: two FMs that both believe they own the
fabric at one epoch meet in each other's claims, and the election
tie-break (higher DSN wins) decides."""

import dataclasses

from repro.experiments.runner import build_simulation, run_until_ready
from repro.manager import FabricManager
from repro.topology import make_mesh


def fenced_mesh(fm_host=None):
    spec = make_mesh(3, 3)
    if fm_host is not None:
        spec = dataclasses.replace(spec, fm_host=fm_host)
    setup = build_simulation(spec, fence_ownership=True)
    run_until_ready(setup)
    return setup


def rival_on(setup, host):
    """A second fencing FM on ``host``, at the default epoch."""
    rival = FabricManager(setup.fabric.device(host), setup.entities[host],
                          auto_start=False, fence_ownership=True)
    rival.start_discovery()
    setup.env.run(until=rival.ready_event)
    return rival


def endpoints_by_dsn(setup):
    return [e.name for e in sorted(setup.fabric.endpoints(),
                                   key=lambda e: e.dsn)]


class TestSameEpochDuel:
    def test_the_higher_dsn_bumps_the_epoch_and_deposes_the_primary(self):
        setup = fenced_mesh()
        primary = setup.fm
        names = endpoints_by_dsn(setup)
        assert primary.endpoint.name == names[0]
        rival = rival_on(setup, names[-1])
        # It outranks the same-epoch claimant: a new round at epoch 2,
        # whose claims overwrite the primary's everywhere.
        assert not rival.demoted
        assert rival.epoch == 2
        assert rival.counters["fence_epoch_bumps"] == 1
        assert rival.counters["devices_fenced"] == len(rival.database) - 1
        # The primary's next walk observes the newer generation.
        primary.start_discovery(force=True)
        setup.env.run(until=primary.ready_event)
        assert primary.demoted
        assert primary.epoch == 1
        assert primary.counters["fence_deposed_observations"] == 1

    def test_the_lower_dsn_demotes_itself_at_the_same_epoch(self):
        names = endpoints_by_dsn(fenced_mesh())
        setup = fenced_mesh(fm_host=names[-1])
        rival = rival_on(setup, names[0])
        assert rival.demoted
        assert rival.epoch == 1
        assert rival.counters["fence_deposed_observations"] == 1
        assert rival.counters["fence_epoch_bumps"] == 0
        assert rival.counters["fm_demotions"] == 1
        assert not setup.fm.demoted
