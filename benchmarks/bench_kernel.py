#!/usr/bin/env python
"""Microbenchmark of the event kernel and the packet pipeline.

Four measurements, from the inside out:

* ``events_per_s`` — raw kernel throughput: processes yielding timers,
  nothing else.  Exercises the ``Environment.run`` dispatch loop,
  ``Environment.timeout`` (a plain ``Event`` pushed on the heap) and
  the ``Environment.process`` callback trampoline.
* ``cancel_churn_per_s`` — schedule/cancel pairs against a deep heap of
  pending timers.  Exercises ``Environment.cancel`` (the lazy-tombstone
  path) and tombstone compaction.
* ``relay_packets_per_s`` — packets through an A - sw1 - sw2 - B relay:
  the full port pipeline (arbitration, credits, serialization, two
  routing hops, delivery) with no management logic on top.
* ``fig6_mesh_wall_s`` — wall time of one complete Fig. 6 change
  experiment on a mesh (transient discovery, hot switch removal, PI-5
  detection, rediscovery) — the unit of work every sweep in the paper
  reproduction is made of.  **This is the headline regression metric.**

Results are appended to ``BENCH_kernel.json`` at the repository root
(see :mod:`repro.experiments.bench_report`), with speedups against the
recorded pre-optimization baseline.  ``--quick`` shrinks every workload
for CI smoke runs; quick metrics are tracked separately and never
compared against the full baseline.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.experiments.bench_report import record_run, render_entry
from repro.experiments.scenario import Scenario
from repro.fabric.fabric import Fabric
from repro.fabric.packet import PI_APPLICATION, Packet
from repro.routing.paths import fabric_endpoint_routes
from repro.sim.core import Environment

REPORT_PATH = Path(__file__).parent.parent / "BENCH_kernel.json"

UNITS = {
    "events_per_s": "kernel events processed per second",
    "cancel_churn_per_s": "schedule+cancel pairs per second (deep heap)",
    "relay_packets_per_s": "packets delivered per second (2-switch relay)",
    "fig6_mesh_wall_s": "wall seconds for one Fig. 6 mesh change run",
}


# -- events/sec ---------------------------------------------------------------

def bench_events(n_timers: int, n_procs: int = 50) -> float:
    """Kernel-only throughput: ``n_timers`` total timer events."""
    env = Environment()
    per_proc = n_timers // n_procs

    def ticker(env, delay, k):
        for _ in range(k):
            yield env.timeout(delay)

    for i in range(n_procs):
        env.process(ticker(env, 1e-6 * (i + 1), per_proc))
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    # Each timer is one heap event; process start/finish events are noise.
    return (per_proc * n_procs) / elapsed


# -- cancel churn -------------------------------------------------------------

def bench_cancel_churn(n_pairs: int, backlog: int) -> float:
    """Schedule+cancel pairs against ``backlog`` pending timers.

    With the eager O(n) cancel this is quadratic in the backlog; with
    lazy tombstones each pair is O(log n).
    """
    env = Environment()
    for i in range(backlog):
        env.timeout(1e6 + i)  # far-future backlog, never runs

    def churner(env, k):
        for _ in range(k):
            victim = env.timeout(1e5)
            env.cancel(victim)
            yield env.timeout(1e-6)

    proc = env.process(churner(env, n_pairs))
    t0 = time.perf_counter()
    env.run(until=proc)
    elapsed = time.perf_counter() - t0
    return n_pairs / elapsed


# -- 2-switch relay -----------------------------------------------------------

def build_relay():
    """A - sw1 - sw2 - B, powered up, with a route table for A."""
    env = Environment()
    fabric = Fabric(env)
    fabric.add_endpoint("A")
    fabric.add_endpoint("B")
    fabric.add_switch("sw1")
    fabric.add_switch("sw2")
    fabric.connect("A", 0, "sw1", 0)
    fabric.connect("sw1", 1, "sw2", 0)
    fabric.connect("sw2", 1, "B", 0)
    fabric.power_up()
    return fabric


def bench_relay(n_packets: int, payload_bytes: int = 64) -> float:
    """Packets/second sustained through the two-switch relay."""
    from repro.fabric.header import RouteHeader

    fabric = build_relay()
    env = fabric.env
    pool, out_port = fabric_endpoint_routes(fabric, "A")["B"]
    src = fabric.device("A")
    dst = fabric.device("B")
    delivered = [0]
    dst.local_handler = lambda packet, port: delivered.__setitem__(
        0, delivered[0] + 1
    )
    payload = bytes(payload_bytes)

    def source(env):
        for _ in range(n_packets):
            header = RouteHeader(
                pi=PI_APPLICATION,
                turn_pointer=pool.bits,
                turn_pool=pool.pool,
            )
            src.inject(Packet(header=header, payload=payload),
                       port_index=out_port)
            # Pace at roughly the link rate so queues stay shallow and
            # the bench exercises the event path, not deque growth.
            yield env.timeout(2e-7)

    env.process(source(env))
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    if delivered[0] != n_packets:
        raise AssertionError(
            f"relay lost packets: {delivered[0]}/{n_packets} delivered"
        )
    return n_packets / elapsed


# -- fig-6 mesh run -----------------------------------------------------------

def bench_fig6_mesh(topology: str, repeat: int) -> float:
    """Best-of-``repeat`` wall time of one Fig. 6 change experiment."""
    best = float("inf")
    scenario = Scenario(kind="change", topology=topology,
                        algorithm="parallel", seed=0)
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = scenario.run()
        elapsed = time.perf_counter() - t0
        if not result.database_correct:
            raise AssertionError("fig-6 bench run produced a wrong database")
        best = min(best, elapsed)
    return best


# -- driver -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced workloads (CI smoke; tracked apart)")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="fig-6 repetitions, best-of (default 3; 1 quick)")
    parser.add_argument("--label", default="current",
                        help="label recorded in BENCH_kernel.json")
    parser.add_argument("--record-baseline", action="store_true",
                        help="store this run as the trajectory baseline")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only; do not touch the JSON")
    parser.add_argument("--require", type=float, default=None, metavar="X",
                        help="exit non-zero unless the fig-6 speedup vs the "
                             "baseline is at least X (full mode only)")
    args = parser.parse_args(argv)

    if args.quick:
        sizes = dict(events=20_000, pairs=200, backlog=2_000,
                     packets=500, topology="3x3 mesh", repeat=1)
    else:
        sizes = dict(events=200_000, pairs=2_000, backlog=10_000,
                     packets=5_000, topology="6x6 mesh", repeat=3)
    if args.repeat is not None:
        sizes["repeat"] = max(1, args.repeat)

    print(f"kernel bench ({'quick' if args.quick else 'full'} mode)")
    metrics = {}
    metrics["events_per_s"] = round(bench_events(sizes["events"]), 1)
    print(f"  events_per_s         {metrics['events_per_s']:>14,.0f}")
    metrics["cancel_churn_per_s"] = round(
        bench_cancel_churn(sizes["pairs"], sizes["backlog"]), 1
    )
    print(f"  cancel_churn_per_s   {metrics['cancel_churn_per_s']:>14,.0f}")
    metrics["relay_packets_per_s"] = round(bench_relay(sizes["packets"]), 1)
    print(f"  relay_packets_per_s  {metrics['relay_packets_per_s']:>14,.0f}")
    metrics["fig6_mesh_wall_s"] = round(
        bench_fig6_mesh(sizes["topology"], sizes["repeat"]), 6
    )
    print(f"  fig6_mesh_wall_s     {metrics['fig6_mesh_wall_s']:>14.6f}"
          f"  ({sizes['topology']}, best of {sizes['repeat']})")

    if args.no_write:
        return 0

    entry = record_run(
        REPORT_PATH, benchmark="kernel", label=args.label, metrics=metrics,
        units=UNITS, quick=args.quick, as_baseline=args.record_baseline,
    )
    print()
    print(render_entry(entry))
    print(f"[trajectory: {REPORT_PATH}]")

    if args.require is not None and not args.quick:
        speedup = entry.get("speedup_vs_baseline", {}).get("fig6_mesh_wall_s")
        if speedup is None:
            print("no baseline to compare against", file=sys.stderr)
            return 2
        if speedup < args.require:
            print(f"fig-6 speedup {speedup:.2f}x below required "
                  f"{args.require:.2f}x", file=sys.stderr)
            return 1
        print(f"fig-6 speedup {speedup:.2f}x >= required {args.require:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
