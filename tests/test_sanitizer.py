"""The sanitizer itself: it passes a clean run and catches a broken one.

Each fault is planted for one test with ``monkeypatch`` and the run it
breaks is a small discovery; the sanitizer must stop it with an
:class:`~tests.sanitizer.InvariantViolation` naming the law.
"""

import pytest

from repro.capability.claim import CLAIM_CAP_ID, ClaimCapability
from repro.experiments.runner import build_simulation, run_until_ready
from repro.fabric.device import Device
from repro.fabric.port import Port
from repro.fabric.switch import Switch
from repro.topology import make_mesh
from tests.sanitizer import InvariantViolation, sanitized


def discover(stride=1):
    with sanitized(stride=stride) as sanitizers:
        setup = build_simulation(make_mesh(2, 2))
        run_until_ready(setup)
    (sanitizer,) = sanitizers
    return setup, sanitizer


def test_a_clean_run_passes_every_check():
    setup, sanitizer = discover(stride=7)
    assert sanitizer.steps == setup.env.vitals()["events_executed"]
    assert sanitizer.checks["credits"] == sanitizer.checks["packets"] > 10
    assert sanitizer.entered >= len(sanitizer.delivered) > 0


def test_a_credit_that_never_comes_back_is_caught(monkeypatch):
    release = Port.release_input
    returns = []

    def leaky(packet):
        hold = packet.rx_hold
        release(packet)
        if hold is not None and hold[0]._remote._ledger:
            returns.append(packet)
            if len(returns) == 5:
                hold[0]._remote._ledger.pop()  # the return just owed, lost
    monkeypatch.setattr(Port, "release_input", staticmethod(leaky))
    with pytest.raises(InvariantViolation, match="credit units"):
        discover()


def test_a_packet_lost_without_a_trace_is_caught(monkeypatch):
    route = Switch._route
    seen = []

    def lossy(self, packet, in_port):
        seen.append(packet)
        if len(seen) == 3:
            Port.release_input(packet)  # dropped, neither traced nor counted
            return
        route(self, packet, in_port)
    monkeypatch.setattr(Switch, "_route", lossy)
    with pytest.raises(InvariantViolation, match="packets entered"):
        discover()


def test_a_packet_delivered_twice_is_caught(monkeypatch):
    deliver = Device._deliver

    def twice(self, packet, port):
        if self._trace_hook is not None:
            self._trace_hook("deliver", self, None, packet)
        deliver(self, packet, port)
    monkeypatch.setattr(Device, "_deliver", twice)
    with pytest.raises(InvariantViolation, match="delivered twice"):
        discover()


def test_a_miscounted_tombstone_is_caught():
    with sanitized(stride=1):
        setup = build_simulation(make_mesh(2, 2))

        def miscount():
            setup.env._tombstones += 1
        setup.env.call_later(1e-6, miscount)
        with pytest.raises(InvariantViolation, match="tombstones"):
            run_until_ready(setup)


def test_a_claim_epoch_stepped_back_is_caught():
    with sanitized(stride=1) as sanitizers:
        setup = build_simulation(make_mesh(2, 2), fence_ownership=True)
        run_until_ready(setup)
        (sanitizer,) = sanitizers
        assert sanitizer.generations and sanitizer.checks["claims"]
        device = next(iter(setup.fabric.devices.values()))
        claims = device.config_space.capability(CLAIM_CAP_ID)
        owner, epoch = claims.get_claim()

        def step_back():
            claims.write(0, ClaimCapability.encode(owner, epoch - 1))
        setup.env.call_later(1e-6, step_back)
        with pytest.raises(InvariantViolation, match="claim epoch"):
            setup.env.run()
