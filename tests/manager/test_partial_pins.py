"""Byte pins of partial assimilation: every burst, span by span.

Corpus replay checks a partial manager's runs for pass/fail only, and
the failover golden's rows repair nothing, so without these pins a
burst could change its packets, its order or its spans unseen.  Each
pin is the sha256 of a span-only Chrome-trace export
(``TraceSession(packets=False)``; such exports are byte-stable across
processes) followed by the run's result document: a scenario's
``result.asdict()``, or for a hand-driven setup every history entry's
``asdict()`` and the FM's counters.  Recorded before the burst became
a discovery walk (``repro.manager.discovery.partial``) and unchanged
by it; a change that moves one re-records it in a diff that says why.

``python -m tests.manager.test_partial_pins`` prints the digests.
"""

import hashlib
import json

import pytest

from repro.experiments import Scenario
from repro.experiments.churn import run_until_quiescent
from repro.experiments.runner import build_simulation, run_until_ready
from repro.obs import TraceSession, chrome_trace_document, dump_chrome_trace
from repro.topology import make_mesh

SCENARIOS = {
    # Five change bursts each on the 4x4 mesh.
    "churn-4x4-s0": dict(kind="churn", topology="4x4 mesh", seed=0),
    "churn-4x4-s1": dict(kind="churn", topology="4x4 mesh", seed=1),
    "churn-4x4-s2": dict(kind="churn", topology="4x4 mesh", seed=2),
    # A burst that falls back to a full walk (``aborted_to_full``).
    "churn-6x6-f6-s2": dict(kind="churn", topology="6x6 mesh", faults=6,
                            seed=2),
    "failover-6x6-f3-s2": dict(kind="failover", topology="6x6 mesh",
                               faults=3, seed=2),
    "change-4x4-s0": dict(kind="change", topology="4x4 mesh", seed=0),
}

#: Events from ``restore_device`` until the up-burst's region
#: exploration has its first read in flight (measured by polling the
#: FM's region before the burst became a walk).
YANK_STEPS = 172

PINS = {
    "churn-4x4-s0":
        "ad9b20e061926cdae53299a12ed87c9d4a1e97975ce34ceb590c42c3d56a60e9",
    "churn-4x4-s1":
        "9b95f5514852fbfb54e377ac0016374ab7122b47d300fdf92d99fedc08d74acc",
    "churn-4x4-s2":
        "c655e7c942d30aa982d770b159a36be19c72e0631c259ddea7275a893c9d46a5",
    "churn-6x6-f6-s2":
        "a9b5c4574f51f03a4bacb19ac39753a47c9c42ddd0fff99c876ec53b5c53be6b",
    # Re-recorded when the mirror sync rode on the heartbeat: with no
    # sync read at the primary's entity its fallback walk ends 5 µs
    # sooner, detection is 5 µs shorter and mirror syncs go 20 → 17.
    # Re-recorded again when the takeover mode stopped being a setting:
    # the result document lost its ``mode`` key and nothing else (the
    # old pin's document with ``mode`` popped gives this digest).
    "failover-6x6-f3-s2":
        "5ff33dc076e459e855f4ef536a66423377bba8652a256c8b9ced86121eec2c69",
    "change-4x4-s0":
        "5a2fefbb319d931e63ab265ff53260f0438beceaa470fb9d547a387771ffcbb3",
    "repair-3x3":
        "6630af7639191e0608f84dca89dd5d6f329d15d7791b86d2ed0ba86627b9d1a5",
    "yank-4x4":
        "6d548dd4a99f0faaa72a858472e318888d3c8e5c44360a7878b8f07273bf39d0",
}


def digest(session, document) -> str:
    trace = dump_chrome_trace(chrome_trace_document(session))
    payload = json.dumps(document, sort_keys=True)
    return hashlib.sha256((trace + payload).encode()).hexdigest()


def setup_digest(session, setup) -> str:
    session.finalize(setup)
    fm = setup.fm
    return digest(session, {
        "history": [stats.asdict() for stats in fm.history],
        "counters": dict(fm.counters),
    })


def scenario_digest(name: str) -> str:
    session = TraceSession(packets=False)
    result = Scenario(manager="partial", **SCENARIOS[name]).run(
        tracer=session)
    return digest(session, result.asdict())


def repair_digest() -> str:
    """The repair burst of ``test_repair_prefers_partial_machinery``."""
    session = TraceSession(packets=False)
    setup = build_simulation(make_mesh(3, 3), manager="partial",
                             tracer=session)
    run_until_ready(setup)
    fm = setup.fm
    suspect = next(
        record.dsn for record in fm.database.devices()
        if record.ingress_port is not None
        and any(port.up and index != record.ingress_port
                for index, port in record.ports.items())
    )
    assert fm._resolve_inconsistency({suspect}, fm.history[-1])
    assert fm.is_assimilating
    run_until_quiescent(setup)
    return setup_digest(session, setup)


def yank_digest() -> str:
    """The mid-region yank of ``test_target_removed_mid_assimilation_
    recovers``: ``sw_2_2`` comes back and goes again while the burst
    explores behind it."""
    session = TraceSession(packets=False)
    setup = build_simulation(make_mesh(4, 4), manager="partial",
                             tracer=session)
    run_until_ready(setup)
    fabric = setup.fabric
    fabric.remove_device("sw_2_2")
    run_until_quiescent(setup)
    fabric.restore_device("sw_2_2")
    for _ in range(YANK_STEPS):
        setup.env.step()
    assert setup.fm.is_assimilating
    fabric.remove_device("sw_2_2")
    run_until_quiescent(setup)
    return setup_digest(session, setup)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_bursts_are_byte_identical(name):
    assert scenario_digest(name) == PINS[name]


def test_the_repair_burst_is_byte_identical():
    assert repair_digest() == PINS["repair-3x3"]


def test_the_mid_region_yank_is_byte_identical():
    assert yank_digest() == PINS["yank-4x4"]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        print(f"{name}: {scenario_digest(name)}")
    print(f"repair-3x3: {repair_digest()}")
    print(f"yank-4x4: {yank_digest()}")
