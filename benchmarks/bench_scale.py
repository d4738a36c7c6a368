#!/usr/bin/env python
"""Mega-scale fabric benchmark: build + discovery across generator families.

Each point of the sweep constructs one parameterised topology
(Dragonfly or two-layer fat-tree, see :mod:`repro.topology`), runs a
full parallel discovery to completion, and records:

* ``<point>_build_s``      — wall seconds to generate the spec and
  instantiate the fabric (devices, ports, config spaces, links);
* ``<point>_discover_s``   — wall seconds for the complete discovery
  (the FM ready event: database complete, event routes programmed);
* ``<point>_events_per_s`` — kernel events executed per wall second
  during discovery (``Environment.vitals()``; the scale-run analogue
  of ``perf/run.py``'s ``sim.probe.timer_events_per_s``).  The recorded
  baseline counted events *scheduled* by a kernel that ran ~2.5x as
  many per packet hop, so compare ``discover_s`` with it, not this rate;
* ``<point>_build_rss_mb`` — peak resident set once the fabric is
  built, so what the build holds and what the run adds read apart;
* ``<point>_peak_rss_mb``  — peak resident set of the whole run;
* ``<point>_heap_high_water`` — deepest the kernel's event heap got
  (a few dozen on an idle discovery of any size: attach kicks and
  retry timers are heap entries only when they can act).

Every point runs in its own spawned child process, so peak-RSS numbers
are not polluted by earlier points.  A point that raises fails the
sweep with the child's exception, and one that dies (out of memory,
killed) with ``BrokenProcessPool``; neither leaves the sweep waiting.

Each run is appended to ``runs`` in ``BENCH_scale.json`` at the
repository root, with per-metric speedups against the file's
``baseline`` (baseline / current for seconds, sizes and depths,
current / baseline for ``_per_s`` rates: bigger is better either way).
``--quick`` shrinks the sweep to a few-hundred-device smoke suitable
for CI; quick runs are never compared against the full baseline.  The
headline metric of the full sweep is the 10,000-device Dragonfly
discovery (``dragonfly_k16m125e4_discover_s``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

REPORT_PATH = Path(__file__).parent.parent / "BENCH_scale.json"

#: Full sweep: one ~1k and one ~10k point per generator family.  The
#: 10k Dragonfly (2000 radix-27 switches, 8000 endpoints) is the
#: acceptance point: exactly 10,000 devices.
FULL_POINTS = (
    "dragonfly-k8m62",      # 496 switches + 496 endpoints = 992 devices
    "dragonfly-k16m125e4",  # 2000 switches + 8000 endpoints = 10000
    "fattree2-1024",        # 1024 endpoints + 32 edge + 32 core = 1088
    "fattree2-8192",        # 8192 endpoints + 128 edge + 64 core = 8384
)

#: CI smoke: a few hundred devices per family, seconds not minutes.
QUICK_POINTS = (
    "dragonfly-k6m13",      # 78 switches + 78 endpoints = 156 devices
    "fattree2-256",         # 256 endpoints + 16 edge + 16 core = 288
)


def _metric_key(name: str) -> str:
    return name.replace("-", "_")


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _measure_point(name: str) -> dict:
    """Child-process body: build, discover, report one sweep point."""

    from repro.experiments.runner import build_simulation, run_until_ready
    from repro.topology import resolve_topology

    t0 = time.perf_counter()
    spec = resolve_topology(name)
    setup = build_simulation(spec, algorithm="parallel")
    build_s = time.perf_counter() - t0
    build_rss_mb = _peak_rss_mb()

    t1 = time.perf_counter()
    stats = run_until_ready(setup)
    discover_s = time.perf_counter() - t1

    devices = len(setup.fabric.devices)
    if stats.devices_found != devices:
        raise AssertionError(
            f"{name}: discovery found {stats.devices_found} of "
            f"{devices} devices"
        )
    vitals = setup.env.vitals()
    events = vitals["events_executed"]
    return {
        "devices": devices,
        "build_s": round(build_s, 3),
        "discover_s": round(discover_s, 3),
        "events": events,
        "events_per_s": round(events / discover_s, 1),
        "build_rss_mb": build_rss_mb,
        "peak_rss_mb": _peak_rss_mb(),
        "heap_high_water": vitals["heap_high_water"],
        "sim_time_ms": round(setup.env.now * 1e3, 3),
    }


def run_point(name: str) -> dict:
    """Measure one sweep point in a fresh spawned interpreter."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(_measure_point, name).result()


def record(entry: dict, units: dict) -> None:
    """Append ``entry`` to the trajectory file, with its speedups
    against the baseline when both are quick or both are full."""
    report = json.loads(REPORT_PATH.read_text())
    report["units"].update(units)
    baseline = report["baseline"]
    if baseline["quick"] == entry["quick"]:
        entry["speedup_vs_baseline"] = {
            name: now / base if name.endswith("_per_s") else base / now
            for name, now in entry["metrics"].items()
            if (base := baseline["metrics"].get(name)) and now
        }
    report["runs"].append(entry)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="few-hundred-device smoke (CI; tracked apart)")
    parser.add_argument("--points", nargs="*", metavar="NAME",
                        help="override the sweep with explicit topology "
                             "names (e.g. dragonfly-k8m17 fattree2-512)")
    parser.add_argument("--label", default="current",
                        help="label recorded in BENCH_scale.json")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only; do not touch the JSON")
    args = parser.parse_args(argv)

    points = tuple(args.points) if args.points else (
        QUICK_POINTS if args.quick else FULL_POINTS
    )
    print(f"scale bench ({'quick' if args.quick else 'full'} mode, "
          f"{len(points)} points)")

    metrics: dict = {}
    units: dict = {}
    for name in points:
        result = run_point(name)
        key = _metric_key(name)
        metrics[f"{key}_build_s"] = result["build_s"]
        metrics[f"{key}_discover_s"] = result["discover_s"]
        metrics[f"{key}_events_per_s"] = result["events_per_s"]
        metrics[f"{key}_build_rss_mb"] = result["build_rss_mb"]
        metrics[f"{key}_peak_rss_mb"] = result["peak_rss_mb"]
        metrics[f"{key}_heap_high_water"] = result["heap_high_water"]
        units[f"{key}_build_s"] = (
            f"wall seconds to build {result['devices']} devices"
        )
        units[f"{key}_discover_s"] = (
            f"wall seconds to discover {result['devices']} devices"
        )
        units[f"{key}_events_per_s"] = "kernel events per wall second"
        units[f"{key}_build_rss_mb"] = "peak resident set after build (MiB)"
        units[f"{key}_peak_rss_mb"] = "peak resident set (MiB)"
        units[f"{key}_heap_high_water"] = "deepest event heap (entries)"
        print(f"  {name:<22s} devices={result['devices']:>6,} "
              f"build={result['build_s']:>7.2f}s "
              f"discover={result['discover_s']:>7.2f}s "
              f"events/s={result['events_per_s']:>10,.0f} "
              f"rss={result['build_rss_mb']:>6.1f}->"
              f"{result['peak_rss_mb']:.1f}MB "
              f"heap={result['heap_high_water']:,}")

    if args.no_write:
        return 0

    entry = {"label": args.label, "quick": args.quick, "metrics": metrics}
    record(entry, units)
    print()
    print(f"{entry['label']}{' [quick]' if entry['quick'] else ''}")
    for name, value in metrics.items():
        print(f"  {name:<24s} {value:>14,.6g}")
    for name, factor in entry.get("speedup_vs_baseline", {}).items():
        print(f"  speedup[{name}]{'':<7s} {factor:>14.2f}x")
    print(f"[trajectory: {REPORT_PATH}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
