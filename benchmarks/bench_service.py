#!/usr/bin/env python
"""Service benchmark: concurrent clients querying a churning fabric.

Starts an in-process fabric service (:func:`repro.service.start_service`)
hosting a fig-6-class topology with the fault injector continuously
disturbing it, then hammers it with N concurrent client threads (each
its own TCP connection) issuing a query mix of ``topology`` /
``status`` / ``path`` / ``metrics`` for a fixed wall-clock window.
Every response is schema-checked; any error response fails the run,
and so does a simulation kernel that died during the window
(``driver.crashed``) — the clients alone would not notice: reads keep
being answered from the last snapshot.

Metrics recorded into ``BENCH_service.json``:

* ``queries_per_s``  — completed requests per wall second across all
  clients (the headline, gateable with ``--require``);
* ``p50_ms`` / ``p99_ms`` — request latency percentiles;
* ``sim_events_per_s`` — kernel events the driver advanced per wall
  second *while* serving (the sim keeps running under load);
* ``faults_injected`` — churn actually applied during the window.

Full mode: 8x8 mesh (the paper's biggest mesh), 8 clients, 10 s.
``--quick``: 4x4 mesh, 4 clients, 2 s — CI smoke, tracked separately
and never compared against the full baseline.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.experiments.bench_report import record_run, render_entry
from repro.service import ServiceError, start_service

REPORT_PATH = Path(__file__).parent.parent / "BENCH_service.json"

HEADLINE = "queries_per_s"

#: The per-client query mix, cycled in order (reads dominate, exactly
#: as a monitoring stack would drive a real control plane).
QUERY_MIX = ("topology", "status", "path", "status", "metrics", "status")


class ClientWorker(threading.Thread):
    """One benchmark client: its own connection, latencies in ``samples``."""

    def __init__(self, host: str, port: int, stop: threading.Event,
                 index: int):
        super().__init__(name=f"bench-client-{index}", daemon=True)
        self.host = host
        self.port = port
        self.stop_event = stop
        self.index = index
        self.samples: list = []
        self.errors: list = []

    def run(self) -> None:
        from repro.service import ServiceClient
        try:
            with ServiceClient(self.host, self.port) as client:
                # Pick two stable endpoints for path queries: churn
                # never removes endpoints, so these DSNs stay valid.
                topo = client.request("topology")
                endpoints = [d["dsn"] for d in topo["devices"]
                             if d["type"] == "endpoint"]
                src = endpoints[0]
                dst = endpoints[(1 + self.index) % len(endpoints)]
                i = 0
                while not self.stop_event.is_set():
                    op = QUERY_MIX[i % len(QUERY_MIX)]
                    i += 1
                    params = ({"src": src, "dst": dst}
                              if op == "path" else {})
                    t0 = time.perf_counter()
                    try:
                        result = client.request(op, **params)
                    except ServiceError as exc:
                        # A path can legitimately vanish mid-churn.
                        if exc.code in ("no-path", "unknown-dsn"):
                            continue
                        self.errors.append(f"{op}: {exc}")
                        return
                    self.samples.append(time.perf_counter() - t0)
                    if "sim_time" not in result and op != "topologies":
                        self.errors.append(f"{op}: missing sim_time")
                        return
        except Exception as exc:
            self.errors.append(f"client {self.index}: "
                               f"{type(exc).__name__}: {exc}")


def run_bench(topology: str, clients: int, duration: float,
              seed: int) -> dict:
    handle = start_service(topology, churn=True, seed=seed)
    try:
        stop = threading.Event()
        workers = [ClientWorker(handle.host, handle.port, stop, i)
                   for i in range(clients)]
        events_before = handle.driver.events_stepped
        t0 = time.perf_counter()
        for worker in workers:
            worker.start()
        time.sleep(duration)
        stop.set()
        for worker in workers:
            worker.join(timeout=30)
        elapsed = time.perf_counter() - t0
        events_after = handle.driver.events_stepped

        crashed = handle.driver.crashed
        if crashed is not None:
            # Checked first: a dead kernel is what the client errors
            # below would be symptoms of.
            raise RuntimeError(
                f"the simulation kernel died during the window: "
                f"{crashed!r}") from crashed
        errors = [e for w in workers for e in w.errors]
        if errors:
            raise RuntimeError("client errors: " + "; ".join(errors[:5]))
        samples = sorted(s for w in workers for s in w.samples)
        if not samples:
            raise RuntimeError("no queries completed")
        faults = (len(handle.injector.log)
                  if handle.injector is not None else 0)
        return {
            "queries": len(samples),
            "queries_per_s": round(len(samples) / elapsed, 1),
            "p50_ms": round(
                statistics.quantiles(samples, n=100)[49] * 1e3, 3),
            "p99_ms": round(
                statistics.quantiles(samples, n=100)[98] * 1e3, 3),
            "sim_events_per_s": round(
                (events_after - events_before) / elapsed, 1),
            "faults_injected": faults,
        }
    finally:
        handle.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2s/4-client smoke on mesh16 (CI; "
                             "tracked apart)")
    parser.add_argument("--topology", default=None,
                        help="override the benchmark topology")
    parser.add_argument("--clients", type=int, default=None, metavar="N",
                        help="concurrent client connections "
                             "(default 8, quick 4)")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="measurement window (default 10, quick 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="churn seed (default 0)")
    parser.add_argument("--label", default="current",
                        help="label recorded in BENCH_service.json")
    parser.add_argument("--record-baseline", action="store_true",
                        help="store this run as the trajectory baseline")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only; do not touch "
                             "the JSON")
    parser.add_argument("--require", type=float, default=None, metavar="X",
                        help="exit non-zero unless queries_per_s "
                             "speedup vs the baseline is at least X "
                             "(full mode only)")
    args = parser.parse_args(argv)

    topology = args.topology or ("mesh16" if args.quick else "mesh64")
    clients = args.clients or (4 if args.quick else 8)
    duration = args.duration or (2.0 if args.quick else 10.0)

    print(f"service bench ({'quick' if args.quick else 'full'} mode): "
          f"{clients} clients vs churning {topology} for {duration:g}s")
    result = run_bench(topology, clients, duration, args.seed)
    print(f"  queries={result['queries']:,} "
          f"({result['queries_per_s']:,.0f}/s)  "
          f"p50={result['p50_ms']:.2f}ms p99={result['p99_ms']:.2f}ms  "
          f"sim_events/s={result['sim_events_per_s']:,.0f}  "
          f"faults={result['faults_injected']:,}")

    if args.no_write:
        return 0

    metrics = {k: v for k, v in result.items() if k != "queries"}
    units = {
        "queries_per_s": f"completed requests per wall second "
                         f"({clients} clients, churning {topology})",
        "p50_ms": "median request latency (ms)",
        "p99_ms": "99th percentile request latency (ms)",
        "sim_events_per_s": "kernel events advanced per wall second "
                            "while serving",
        "faults_injected": "churn faults applied during the window",
    }
    entry = record_run(
        REPORT_PATH, benchmark="service", label=args.label,
        metrics=metrics, units=units, quick=args.quick,
        as_baseline=args.record_baseline,
    )
    print()
    print(render_entry(entry))
    print(f"[trajectory: {REPORT_PATH}]")

    if args.require is not None and not args.quick:
        speedup = entry.get("speedup_vs_baseline", {}).get(HEADLINE)
        if speedup is None:
            print("no baseline to compare against", file=sys.stderr)
            return 2
        if speedup < args.require:
            print(f"{HEADLINE} speedup {speedup:.2f}x below required "
                  f"{args.require:.2f}x", file=sys.stderr)
            return 1
        print(f"{HEADLINE} speedup {speedup:.2f}x >= required "
              f"{args.require:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
