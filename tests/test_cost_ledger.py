"""The cost ledger: what the benchmark's simulations do, as exact counts.

Wall seconds on a shared host spread too widely to gate anything; the
counts here repeat exactly on every host and every supported CPython,
and move only when the simulation does.  Each workload is the
simulation ``perf/workloads.py`` times, at its benchmark size, seed 0:

* ``fig6_change``: the change scenario on the 8x8 mesh, once per
  algorithm (counts summed, heap high-water the largest);
* ``discover_1k``: a Parallel discovery of fattree2-1024 with the FM on
  the first endpoint, run until ready;
* ``load_mesh16``: the load scenario on the 4x4 mesh at 0.6 offered
  load.

:data:`LEDGER` pins, per workload, the executed events by callback
(the heap entry's callback, ``+``-joined for an event with several),
the kernel's ``vitals()`` (executed events, sequence numbers drawn,
heap high-water), the PI-4 requests and completions of the FM, the
port transmissions and the completions the devices still store when
the runs end (``stored_completions``: none, since every transaction
closed with each copy answered — one per request while the store
kept every completion up to its LRU bound).  A change that moves one
re-records it in a diff that says why.

The premise of the kernel's collector policy
(``repro.sim.core.GC_YOUNG_THRESHOLD``) is checked per
``Environment.run`` call: with the simulation still referenced,
``gc.collect()`` right after the run returns finds nothing, so the
collections a run is spared would have freed nothing.  The failover
scenario (standby probes, takeover, the resurrected primary's fencing
duel) runs through the same check.  The collections made while the
runs dispatched are reported, not pinned: they depend on the
interpreter.

``PYTHONPATH=src python tests/test_cost_ledger.py`` prints the table
(CI does, next to the hop-cost tables).
"""

import gc
import time
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache

import pytest

from repro.experiments import runner
from repro.experiments.runner import build_simulation, run_until_ready
from repro.experiments.scenario import Scenario
from repro.obs.metrics import MetricsRegistry
from repro.sim import core
from repro.topology import resolve_topology

SEED = 0

#: The kernel's ``vitals()`` and the scraped counters each workload pins.
VITALS = ("events_executed", "sequence_numbers_drawn", "heap_high_water")
SCRAPED = ("fm.requests_sent", "fm.completions_received", "port.tx_packets")

#: Recorded on CPython 3.11 at the commit before the kernel's collector
#: policy, which left every count as it was; the same on 3.10 and 3.12.
LEDGER = {
    "fig6_change": {
        "events_executed": 302_693,
        "sequence_numbers_drawn": 588_300,
        "heap_high_water": 30,
        "fm.requests_sent": 8_571,
        "fm.completions_received": 8_571,
        "port.tx_packets": 140_364,
        "stored_completions": 0,
        "by_callback": {
            "Device._deliver": 17_124,
            "FabricManager._program_event_routes.<locals>.finish": 6,
            "FabricManager.start_discovery.<locals>.<lambda>": 6,
            "ManagementEntity._complete": 17_148,
            "ManagementEntity._serve": 3,
            "Port._receive": 140_364,
            "Port._tx_kick": 42,
            "Port._tx_start": 4_577,
            "Switch._route": 123_240,
            "TransactionEngine._expire": 174,
            "_stop_simulate": 9,
        },
    },
    "discover_1k": {
        "events_executed": 130_209,
        "sequence_numbers_drawn": 246_255,
        "heap_high_water": 21,
        "fm.requests_sent": 8_193,
        "fm.completions_received": 8_193,
        "port.tx_packets": 54_394,
        "stored_completions": 0,
        "by_callback": {
            "Device._deliver": 16_382,
            "FabricManager._program_event_routes.<locals>.finish": 1,
            "FabricManager.start_discovery.<locals>.<lambda>": 1,
            "ManagementEntity._complete": 16_386,
            "ManagementEntity._serve": 1,
            "Port._receive": 54_394,
            "Port._tx_start": 4_919,
            "Switch._route": 38_012,
            "TransactionEngine._expire": 112,
            "_stop_simulate": 1,
        },
    },
    "load_mesh16": {
        "events_executed": 987_493,
        "sequence_numbers_drawn": 1_409_654,
        "heap_high_water": 85,
        "fm.requests_sent": 681,
        "fm.completions_received": 681,
        "port.tx_packets": 323_550,
        "stored_completions": 0,
        "by_callback": {
            "Device._deliver": 68_477,
            "FabricManager._program_event_routes.<locals>.finish": 2,
            "FabricManager.start_discovery.<locals>.<lambda>": 2,
            "ManagementEntity._complete": 1_365,
            "ManagementEntity._serve": 15_987,
            "Port._credit_event": 39_663,
            "Port._receive": 323_549,
            "Port._tx_kick": 19_108,
            "Port._tx_start": 185_996,
            "Switch._route": 255_062,
            "TrafficGenerator._source.<locals>.<lambda>": 16,
            "TrafficGenerator._source.<locals>.arrive": 78_254,
            "TransactionEngine._expire": 9,
            "_stop_simulate": 3,
        },
    },
}


class Ledger:
    """What the runs of one workload did."""

    def __init__(self):
        #: The workload's simulations, until :meth:`close`.
        self.setups = []
        self.simulations = 0
        #: Executed heap entries by callback name.
        self.by_callback = Counter()
        #: Objects ``gc.collect()`` found right after each run returned.
        self.garbage = []
        #: Collections started while a run dispatched, per generation.
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        #: The counts :data:`LEDGER` pins, set by :meth:`close`.
        self.counts = None

    def close(self) -> None:
        """Take the counts and let the simulations go."""
        each = [setup.env.vitals() for setup in self.setups]
        counts = {key: sum(v[key] for v in each) for key in VITALS}
        counts["heap_high_water"] = max(v["heap_high_water"] for v in each)
        registry = MetricsRegistry()
        for setup in self.setups:
            registry.scrape_setup(setup)
        counts.update((name, registry.value(name)) for name in SCRAPED)
        counts["stored_completions"] = sum(
            len(entity._served_replies)
            for setup in self.setups for entity in setup.entities.values())
        counts["by_callback"] = dict(sorted(self.by_callback.items()))
        self.counts, self.simulations = counts, len(self.setups)
        self.setups.clear()


def callback_name(fn) -> str:
    return getattr(fn, "__qualname__", type(fn).__name__)


def entry_name(event) -> str:
    """What an event entry runs: its callbacks, ``+``-joined."""
    return "+".join(map(callback_name, event.callbacks)) or "(no callback)"


class Capture:
    """Duck-typed ``tracer`` for ``Scenario.run``: keeps the setup and
    installs nothing, so the run is the untraced run."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger

    def install(self, setup) -> None:
        self.ledger.setups.append(setup)

    def finalize(self, setup) -> None:
        pass


@contextmanager
def ledgered(ledger: Ledger):
    """Within the block, every heap entry the kernel pops and executes
    is counted by callback, and every ``run`` of an environment
    ``build_simulation`` makes is bracketed by ``gc.collect()`` calls
    (the one after it is the premise check).  The kernel's own ``run``
    loop is what runs: only its ``heappop`` is wrapped."""
    pop, by_callback = core.heappop, ledger.by_callback

    def counting_pop(queue):
        entry = pop(queue)
        fn, args = entry[3], entry[4]
        if args is not None:
            by_callback[callback_name(fn)] += 1
        elif not fn._cancelled:  # a tombstone is discarded, not run
            by_callback[entry_name(fn)] += 1
        return entry

    def collection(phase, info):
        if phase == "start":
            ledger.collections[info["generation"]] += 1

    class Ledgered(core.Environment):
        def run(self, until=None):
            gc.collect()
            gc.callbacks.append(collection)
            try:
                return super().run(until)
            finally:
                gc.callbacks.remove(collection)
                ledger.garbage.append(gc.collect())

    saved = runner.Environment
    runner.Environment, core.heappop = Ledgered, counting_pop
    start = time.perf_counter()
    try:
        yield ledger
    finally:
        ledger.seconds = time.perf_counter() - start
        runner.Environment, core.heappop = saved, pop


def fig6_change(ledger: Ledger) -> None:
    for algorithm in ("serial_packet", "serial_device", "parallel"):
        Scenario(kind="change", topology="8x8 mesh", algorithm=algorithm,
                 seed=SEED).run(tracer=Capture(ledger))


def discover_1k(ledger: Ledger) -> None:
    spec = resolve_topology("fattree2-1024")
    setup = build_simulation(
        spec, "parallel", fm_host=spec.endpoints[SEED % len(spec.endpoints)])
    ledger.setups.append(setup)
    run_until_ready(setup)


def load_mesh16(ledger: Ledger) -> None:
    Scenario(kind="load", topology="4x4 mesh", traffic={"load": 0.6},
             seed=SEED).run(tracer=Capture(ledger))


def failover(ledger: Ledger) -> None:
    Scenario(kind="failover", topology="mesh16", restart_primary=True,
             seed=SEED).run(tracer=Capture(ledger))


WORKLOADS = {fn.__name__: fn for fn in (
    fig6_change, discover_1k, load_mesh16, failover)}


@lru_cache(maxsize=None)
def measure(name: str) -> Ledger:
    """The ledger of one workload, measured once per process."""
    ledger = Ledger()
    with ledgered(ledger):
        WORKLOADS[name](ledger)
    ledger.close()
    return ledger


@pytest.mark.parametrize("name", sorted(LEDGER))
def test_the_counts_are_the_pinned_ones(name):
    counts = measure(name).counts
    assert sum(counts["by_callback"].values()) == counts["events_executed"]
    assert counts == LEDGER[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_run_leaves_cyclic_garbage(name):
    ledger = measure(name)
    assert ledger.garbage and not any(ledger.garbage), ledger.garbage


def print_table() -> None:
    for name in WORKLOADS:
        ledger = measure(name)
        counts = dict(ledger.counts)
        by_callback = counts.pop("by_callback")
        print(f"{name} (seed {SEED}, {ledger.simulations} simulation(s), "
              f"{len(ledger.garbage)} runs, {ledger.seconds:.1f} s ledgered)")
        for key, value in counts.items():
            print(f"  {value:>10,}  {key}")
        print("  executed events by callback:")
        for key, value in sorted(by_callback.items(), key=lambda kv: -kv[1]):
            print(f"  {value:>10,}  {key}")
        print(f"  collections while runs dispatched (young/middle/full, "
              f"reported): {'/'.join(map(str, ledger.collections))}")
        print(f"  objects gc.collect() found after each run: "
              f"{ledger.garbage}")
    pinned = sum(len(entry) - 1 + len(entry["by_callback"])
                 for entry in LEDGER.values())
    print(f"{pinned} pinned counts over {len(LEDGER)} workloads")


if __name__ == "__main__":
    print_table()
