"""Byte pins of the discovery algorithms' send orders.

The goldens pin what a discovery finds and what it costs; these pin
*how* it paces its reads.  Each pin is the sha256 of every request a
bring-up sends, as ``(sim time, turn pool, pool bits, egress port,
message type, register offset)`` in send order (the event-route writes
that follow the walk included), followed by the discovery's
``DiscoveryStats.asdict()``.  Rows cover the three algorithms and
Parallel bounded to 1, 2 and 4 outstanding requests, on the 4x4 mesh
and a seeded irregular topology with redundant links (where duplicate
detection matters).

``python -m tests.manager.test_send_order`` prints the digests.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import build_simulation, run_until_ready
from repro.manager import PARALLEL, SERIAL_DEVICE, SERIAL_PACKET
from repro.topology import resolve_topology

TOPOLOGIES = ("4x4 mesh", "irregular-12+6 (seed=5)")

#: Row -> (algorithm, ``parallel_window``).
ROWS = {
    "serial_packet": (SERIAL_PACKET, None),
    "serial_device": (SERIAL_DEVICE, None),
    "parallel": (PARALLEL, None),
    "parallel-w1": (PARALLEL, 1),
    "parallel-w2": (PARALLEL, 2),
    "parallel-w4": (PARALLEL, 4),
}

PINS = {
    ('4x4 mesh', 'serial_packet'):
        "6cb50fadeff5baea5c778edbe96c6475018a78ac3e8a87738d0faadc762fb25f",
    ('4x4 mesh', 'serial_device'):
        "dc6d9d47b3670d103973c2236f0f22b473716e915491c96e34004cdbb139adb0",
    ('4x4 mesh', 'parallel'):
        "c98950e5a61ae0e1548aff4f82a069bbacb4014b630c601928d404747b4578c9",
    ('4x4 mesh', 'parallel-w1'):
        "2313e139fd60555550f4780fd8535d9bb9ab7f4cca4ee1875528540dcd9c465b",
    ('4x4 mesh', 'parallel-w2'):
        "87a8293ebdd4ac5d1096f3ad93c9a07c5bc3f374d78dff3ebdc39d64534b493c",
    ('4x4 mesh', 'parallel-w4'):
        "816ecae8d67ea75e30e8e24e5d7134fd459bf01c5c63ac92ff68feddcccca0be",
    ('irregular-12+6 (seed=5)', 'serial_packet'):
        "384a2f55793d70900b4eb9f1300c6b27fdec89f8788a5b6c52440b292fd25725",
    ('irregular-12+6 (seed=5)', 'serial_device'):
        "3f21faf1bb70bcc9228f39b6d1bb07fb8a2f8e15bd197bf82da2cdcf5dcb9963",
    ('irregular-12+6 (seed=5)', 'parallel'):
        "874e58bc6f35cbc1fb27193c473db8f9c51e2b5bb2579568d5a901021a1b92d4",
    ('irregular-12+6 (seed=5)', 'parallel-w1'):
        "887fced8ec051fe5bf928fb62c35f590c1a34863b6cbdc2b0d6e2572714a4662",
    ('irregular-12+6 (seed=5)', 'parallel-w2'):
        "63a6674ce9c1d2a796d2012b16748f3c00d9621302c5dc497ba4770d306cfd20",
    ('irregular-12+6 (seed=5)', 'parallel-w4'):
        "e1f0990bba3bf5b37afe49406bf993f0c7de0fb114cb3950024c7b1b0b036f27",
}


def send_order_digest(topology: str, row: str) -> str:
    algorithm, window = ROWS[row]
    setup = build_simulation(resolve_topology(topology),
                             algorithm=algorithm, auto_start=False,
                             parallel_window=window)
    fm, sends = setup.fm, []
    send_request = fm.send_request

    def recording(message, pool, out_port, *args, **kwargs):
        sends.append((setup.env.now, pool.pool, pool.bits, out_port,
                      type(message).__name__, message.offset))
        return send_request(message, pool, out_port, *args, **kwargs)

    fm.send_request = recording
    fm.start_discovery()
    stats = run_until_ready(setup)
    payload = json.dumps([sends, stats.asdict()], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("row", list(ROWS))
def test_send_order_is_pinned(topology, row):
    assert send_order_digest(topology, row) == PINS[topology, row]


if __name__ == "__main__":
    for topology in TOPOLOGIES:
        for row in ROWS:
            print(f"    ({topology!r}, {row!r}):\n"
                  f"        \"{send_order_digest(topology, row)}\",")
