"""The same-epoch fencing duel: two FMs that both believe they own the
fabric at one epoch meet in each other's claims, and the higher DSN
wins."""

import dataclasses

from repro.capability.claim import CLAIM_CAP_ID, ClaimCapability
from repro.experiments.failover import build_failover_pair
from repro.experiments.runner import build_simulation, run_until_ready
from repro.manager import FabricManager
from repro.protocols import pi4
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


def race_the_first_claim_write(fm, fabric, rival_owner):
    """Plant ``(rival_owner, fm.epoch)`` in the claim capability of the
    device the FM's first claim write goes to, as that write is sent:
    the read phase saw the device unclaimed, and the write lands on a
    claim of the FM's own generation.  Returns the device."""
    sent = fm.send_request
    raced = []

    def send_request(message, pool, out_port, callback, ctx=None, **kw):
        if (not raced and isinstance(message, pi4.WriteRequest)
                and message.cap_id == CLAIM_CAP_ID):
            device = next(d for d in fabric.devices.values()
                          if d.dsn == ctx)
            device.config_space.capability(CLAIM_CAP_ID).write(
                0, ClaimCapability.encode(rival_owner, fm.epoch))
            raced.append(device)
        return sent(message, pool, out_port, callback, ctx, **kw)

    fm.send_request = send_request
    return raced


def claim_on(device):
    return device.config_space.capability(CLAIM_CAP_ID).get_claim()


class TestLostWriteRace:
    """The write phase's same-epoch race: a claim of the FM's own
    generation lands between its read and its write, the write is
    refused with ``STATUS_CONFLICT``, the claim is re-read once the
    writes are in, and the claim order decides as in the read phase."""

    def test_a_rival_above_the_fm_demotes_it(self):
        setup, _standby = build_failover_pair(make_mesh(2, 2))
        fm = setup.fm
        me = fm.endpoint.dsn
        raced = race_the_first_claim_write(fm, setup.fabric, me + 1)
        run_until_ready(setup)
        assert len(raced) == 1
        assert fm.counters["fence_conflicts"] == 1
        assert fm.demoted
        assert fm.counters["fm_demotions"] == 1
        assert fm.counters["fence_deposed_observations"] == 0
        assert fm.epoch == 1
        assert claim_on(raced[0]) == (me + 1, 1)

    def test_a_rival_below_the_fm_is_re_stamped_at_once(self):
        setup, _standby = build_failover_pair(make_mesh(2, 2))
        fm = setup.fm
        me = fm.endpoint.dsn
        raced = race_the_first_claim_write(fm, setup.fabric, me - 1)
        run_until_ready(setup)
        # The re-read names a lower owner of the FM's own generation:
        # the FM outranks it, advances one epoch and re-stamps every
        # claim, that one too, before it declares ready.
        assert len(raced) == 1
        assert fm.counters["fence_conflicts"] == 1
        assert not fm.demoted
        assert fm.epoch == 2
        assert fm.counters["fence_epoch_bumps"] == 1
        assert claim_on(raced[0]) == (me, 2)
        fenced = len(fm.database) - 1
        assert fm.counters["devices_fenced"] == 2 * fenced - 1
        # The next pass finds its own claim everywhere: nothing to do.
        fm.start_discovery(force=True)
        setup.env.run(until=fm.ready_event)
        assert not fm.demoted
        assert fm.epoch == 2
        assert fm.counters["fence_epoch_bumps"] == 1
        assert fm.counters["devices_fenced"] == 2 * fenced - 1
