"""The heap before its diet: every retry timer and attach kick pushed.

Inside :func:`eager`, a PI-4 transmission pushes its own retry timer
(``call_later``) and a port being attached pushes its URGENT
zero-delay kick, as ``src/`` did before those timers were elided
(``TransactionEngine._timers``, ``Port._kick``).  Everything else is
the code under test, so a run inside and a run outside the block must
be indistinguishable: same trace-hook stream, same results, same
manager counters, same database (``tests/test_heap_diet.py``).
"""

from contextlib import contextmanager

from repro.fabric.port import Port
from repro.protocols.transaction import TransactionEngine
from repro.sim.events import URGENT


def _transmit(self, entry) -> None:
    pool = entry.pool
    packet = self.entity.send_pi4(
        entry.message, pool.pool, pool.bits, entry.out_port, entry
    )
    self.counters.incr("requests_sent")
    if self.on_transmit is not None:
        self.on_transmit(entry, packet)
    self.env.call_later(entry.timeout, self._on_timeout, entry.tag)


def _attach_link(self, link) -> None:
    if self.link is not None:
        raise RuntimeError(f"port {self.name} already has a link")
    self.link = link
    self._head_latency = link.head_latency()
    self._remote = link.other(self)
    self._error_model = link.error_model
    self._tx_kick_scheduled = True
    self.env.schedule_callback(0.0, self._tx_kick, URGENT)


@contextmanager
def eager():
    """Push every retry timer and every attach kick within the block."""
    saved = TransactionEngine._transmit, Port.attach_link
    TransactionEngine._transmit, Port.attach_link = _transmit, _attach_link
    try:
        yield
    finally:
        TransactionEngine._transmit, Port.attach_link = saved
