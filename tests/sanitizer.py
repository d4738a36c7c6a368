"""A run-time invariant sanitizer for the simulator, test-side.

:class:`SanitizedEnvironment` is an :class:`~repro.sim.core.Environment`
whose :meth:`~SanitizedEnvironment.run` drives ``step()`` and checks,
while the run proceeds, what the end-of-run property tests
(``tests/fabric/test_invariants.py``) only check after the drain:

(i) **credits**, per link direction x VC: the far side's input buffer
    as the sender advertises it is accounted for —
    ``capacity = available + ledger + credit events + in flight + held``
    (the sender's credit mirror, the returns waiting in its ledger or
    on the heap, the packets on the wire, the far buffer's occupancy);
(ii) **packets**: every packet that entered the fabric (an injection
    or a link replay) is delivered, dropped or still in flight — on the
    heap, in a queue — and none is delivered twice;
(iii) **time** never goes backwards, and the heap's tombstones are the
    ones ``vitals()`` counts;
(iv) **claim epochs** only increase: the generation in a device's claim
    capability never falls below one seen there before (ownership
    fencing rests on it — a deposed manager's epoch must never
    overwrite its successor's).

Nothing in ``src/`` knows it is watched: :func:`sanitized` swaps the
environment class ``build_simulation`` constructs and makes every
device built while it is active report to its environment's sanitizer
through the device trace hook, the only observation point the fabric
has.  An untraced run pays nothing.  Time is checked after every event,
the conservation laws every ``stride`` events and when a run returns.

The sanitizer also keeps the trace-hook stream ``(time, device, port,
kind, packet)`` — packet ids renumbered by first sighting, so two runs
in one process compare — which the eager-versus-diet differential
(``tests/test_heap_diet.py``) compares.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from heapq import heappush

from repro.capability.claim import CLAIM_CAP_ID
from repro.experiments import runner
from repro.fabric.device import Device
from repro.fabric.packet import Packet
from repro.sim.core import Environment, _stop_simulate
from repro.sim.errors import EmptySchedule, SimulationError, StopSimulation
from repro.sim.events import PENDING, URGENT, Event

#: Full conservation checks run every ``STRIDE`` events.
STRIDE = 61

#: Drops the fabric counts without a ``drop`` trace event, by owner.
UNTRACED_PORT_DROPS = ("tx_dropped_no_link", "tx_dropped_link_down")
UNTRACED_DEVICE_DROPS = ("rx_dropped_inactive", "header_errors")


class InvariantViolation(AssertionError):
    """A simulator invariant failed while the run was in progress."""


class Sanitizer:
    """What one environment's run is checked against."""

    def __init__(self, env: Environment, stride: int = STRIDE):
        self.env = env
        self.stride = stride
        self.devices = []
        #: ``(time, device, port, kind, packet number)`` per hook call.
        self.stream = []
        self._numbers = {}
        self.entered = 0
        self.dropped = 0
        self.delivered = set()
        self.steps = 0
        self.last_now = env.now
        #: The highest claim generation seen, per device name.
        self.generations = {}
        #: Full checks made, per invariant.
        self.checks = Counter()

    # -- observation ---------------------------------------------------------
    def watch(self, device: Device) -> None:
        self.devices.append(device)
        device.trace_hook = self.hook

    def hook(self, kind, device, port_index, packet, detail=None) -> None:
        number = self._numbers.setdefault(packet.pkt_id, len(self._numbers))
        self.stream.append((self.env.now, device.name, port_index, kind,
                            number))
        if kind == "inject" or (kind == "tx" and detail == "link replay"):
            self.entered += 1
        elif kind == "drop":
            self.dropped += 1
        elif kind == "deliver":
            if packet.pkt_id in self.delivered:
                raise InvariantViolation(
                    f"packet {packet.pkt_id} delivered twice "
                    f"(at {device.name}, t={self.env.now})")
            self.delivered.add(packet.pkt_id)

    def stepped(self) -> None:
        now = self.env.now
        if now < self.last_now:
            raise InvariantViolation(
                f"time went back from {self.last_now} to {now}")
        self.last_now = now
        self.steps += 1
        if self.steps % self.stride == 0:
            self.check()

    # -- the invariants ------------------------------------------------------
    def check(self) -> None:
        env = self.env
        queue = env._queue
        tombstones = sum(1 for entry in queue
                         if entry[4] is None and entry[3]._cancelled)
        if not tombstones == env._tombstones == env.vitals()["tombstones"]:
            raise InvariantViolation(
                f"{tombstones} tombstones on the heap, kernel counts "
                f"{env._tombstones}")
        self.checks["time"] += 1
        # What the heap holds, by the port it is for.
        receiving, returning = Counter(), Counter()
        on_heap = 0
        for _time, _prio, _seq, fn, args in queue:
            if args is None:
                continue
            on_heap += sum(1 for arg in args if type(arg) is Packet)
            owner = getattr(fn, "__self__", None)
            name = getattr(fn, "__name__", "")
            if name == "_receive":
                _packet, vc, units, _lag, epoch, _size = args
                receiving[id(owner), vc, epoch] += units
            elif name == "_credit_event":
                vc, units, epoch = args
                returning[id(owner), vc, epoch] += units
        self._check_credits(receiving, returning)
        self._check_packets(on_heap)
        self._check_claims()

    def _check_credits(self, receiving, returning) -> None:
        for device in self.devices:
            if not device.active:
                continue
            for port in device.ports:
                link = port.link
                if link is None or not link.up:
                    continue
                remote = port._remote
                if not remote.device.active:
                    continue
                epoch = link.epoch
                held = remote._rx_use or [0] * port.params.vc_count
                ledger = Counter()
                for _due, _seq, vc, units, when in port._ledger or ():
                    if when == epoch:
                        ledger[vc] += units
                for vc, record in enumerate(port._tx_vcs or
                                            [None] * len(held)):
                    if record is None:  # never sent on: all is home
                        capacity = home = port._rx_cap
                    else:
                        capacity = record.capacity
                        home = (record.available + ledger[vc]
                                + returning[id(port), vc, epoch])
                    accounted = (home + receiving[id(remote), vc, epoch]
                                 + held[vc])
                    if accounted != capacity:
                        raise InvariantViolation(
                            f"{port.name} vc{vc} at t={self.env.now}: "
                            f"{accounted} credit units accounted for, "
                            f"capacity {capacity}")
        self.checks["credits"] += 1

    def _check_packets(self, on_heap: int) -> None:
        queued = untraced = 0
        for device in self.devices:
            stats = device._stats
            untraced += sum(stats[key] for key in UNTRACED_DEVICE_DROPS)
            for port in device.ports:
                queued += port._queued
                if port._stats is not None:
                    untraced += sum(port._stats[key]
                                    for key in UNTRACED_PORT_DROPS)
        gone = len(self.delivered) + self.dropped + untraced
        if self.entered != gone + on_heap + queued:
            raise InvariantViolation(
                f"t={self.env.now}: {self.entered} packets entered, "
                f"{len(self.delivered)} delivered, {self.dropped} dropped "
                f"(traced) + {untraced} (counted), {on_heap} on the heap, "
                f"{queued} queued")
        self.checks["packets"] += 1


    def _check_claims(self) -> None:
        for device in self.devices:
            claim = device.config_space.capability(CLAIM_CAP_ID).get_claim()
            if claim is None:
                continue
            seen = self.generations.get(device.name, claim[1])
            if claim[1] < seen:
                raise InvariantViolation(
                    f"t={self.env.now}: the claim epoch of {device.name} "
                    f"went back from {seen} to {claim[1]}")
            self.generations[device.name] = claim[1]
        self.checks["claims"] += 1


class SanitizedEnvironment(Environment):
    """An environment whose :meth:`run` is ``step()`` in a loop, with
    the sanitizer looking after every event."""

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self.sanitizer = Sanitizer(self)

    def run(self, until=None):
        """:meth:`Environment.run`'s contract, one ``step()`` at a
        time (the kernel's own ``run`` is that loop unrolled)."""
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self.now:
                raise ValueError(f"until ({at}) must be in the future")
            until = Event(self)
            until._value = None
            heappush(self._queue, (self.now + (at - self.now), URGENT,
                                   next(self._eid), until, None))
        if isinstance(until, Event):
            if until.callbacks is None:
                return until._value if until._value is not PENDING else None
            until.callbacks.append(_stop_simulate)
        sanitizer = self.sanitizer
        try:
            while True:
                self.step()
                sanitizer.stepped()
        except StopSimulation as stop:
            sanitizer.stepped()  # the event that stopped the run
            sanitizer.check()
            return stop.value
        except EmptySchedule:
            sanitizer.check()
            if isinstance(until, Event) and until._value is PENDING:
                raise SimulationError(
                    "no scheduled events left but 'until' event was not "
                    "triggered") from None
        return None


@contextmanager
def sanitized(stride: int = STRIDE):
    """Within the block, ``build_simulation`` builds a
    :class:`SanitizedEnvironment` and every device reports to it.
    Yields the list of sanitizers created, in order."""
    made = []

    class Sanitized(SanitizedEnvironment):
        def __init__(self, initial_time: float = 0.0):
            super().__init__(initial_time)
            self.sanitizer.stride = stride
            made.append(self.sanitizer)

    device_init = Device.__init__

    def init(self, env, *args, **kwargs):
        device_init(self, env, *args, **kwargs)
        if isinstance(env, SanitizedEnvironment):
            env.sanitizer.watch(self)

    saved = runner.Environment
    runner.Environment, Device.__init__ = Sanitized, init
    try:
        yield made
    finally:
        runner.Environment, Device.__init__ = saved, device_init
