#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py --out``.

    python3 perf/compare.py BASE.json NEW.json

One row per workload x end-to-end metric: base, new, new/base and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric —
``better``, ``within-bound``, ``worse``, or ``unresolved`` when the reps
of either side spread (first to third quartile over their median)
wider than the bound, unless every rep of one side beats every rep of
the other.  Then, per simulation workload, how many of its exact counts
(``sim.events``, ``fm.*``, ``port.*``, ``<layer>.calls``,
``sim_discovery_ms``) were compared and a row for each that differs.
Exits non-zero on any ``worse`` row and on any rise in ``fail_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Bounds of the metrics only one workload reports.  ``BENCHMARK.json``
#: bounds only what every workload reports, so these live here.
EXTRA_BOUNDS = {
    "req_p50_ms": 0.12,
    "req_p99_ms": 0.10,
    # Simulated time: any movement is flagged.
    "sim_discovery_ms": 0.0001,
}

#: Workloads whose counts repeat exactly (``serve_churn`` lands its
#: requests on the simulated clock wherever wall time puts them).
EXACT_WORKLOADS = ("fig6_change", "discover_1k", "load_mesh16")


def spread(reps) -> float:
    """First-to-third-quartile distance over the median."""
    quartiles = statistics.quantiles(reps, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(reps)


def verdict(base: float, new: float, bound: float, better: str,
            base_reps=(), new_reps=()) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new - base) / base
    if (len(base_reps) >= 2 and len(new_reps) >= 2
            and max(spread(base_reps), spread(new_reps)) > bound):
        # Too noisy for the ratio to mean anything, unless every rep
        # of one side beats every rep of the other.
        best, worst = (min, max) if better == "lower" else (max, min)
        if sign * (worst(new_reps) - best(base_reps)) < 0:
            return "better"
        if sign * (best(new_reps) - worst(base_reps)) > 0:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within-bound"


def compare(base_doc: dict, new_doc: dict, bench: dict) -> int:
    bounded = {m["name"]: (m["bound"], m["better"])
               for m in bench["end_to_end"]}
    bounded.update((name, (bound, "lower"))
                   for name, bound in EXTRA_BOUNDS.items())
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] == "count"] + ["sim_discovery_ms"]
    bad = 0
    for section in ("untraced", "traced"):
        if section not in base_doc or section not in new_doc:
            continue
        base_all = base_doc[section]["workloads"]
        new_all = new_doc[section]["workloads"]
        print(f"== {section}: base seed {base_doc[section]['seed']} "
              f"@ {base_doc[section]['host']['commit'][:10]}, "
              f"new seed {new_doc[section]['seed']} "
              f"@ {new_doc[section]['host']['commit'][:10]}")
        for workload in base_all:
            if workload not in new_all:
                continue
            base, new = base_all[workload], new_all[workload]
            if section == "untraced":
                for metric, (bound, better) in bounded.items():
                    if (metric not in base["metrics"]
                            or metric not in new["metrics"]):
                        continue
                    b = base["metrics"][metric]["value"]
                    n = new["metrics"][metric]["value"]
                    result = verdict(
                        b, n, bound, better,
                        base["reps"].get(metric, ()),
                        new["reps"].get(metric, ()),
                    )
                    bad += result == "worse"
                    print(f"   {workload:<13s} {metric:<17s} "
                          f"{b:>12.6g} -> {n:>12.6g} "
                          f"{base['metrics'][metric]['unit']:<4s} "
                          f"x{n / b:.4f} of base  (bound "
                          f"{bound:.2%})  {result}")
            b_share = base["failed"] / base["attempted"]
            n_share = new["failed"] / new["attempted"]
            rose = n_share > b_share
            bad += rose
            print(f"   {workload:<13s} {'fail_share':<17s} "
                  f"{base['failed']}/{base['attempted']} -> "
                  f"{new['failed']}/{new['attempted']}  "
                  f"{'worse' if rose else 'no rise'}")
            if workload not in EXACT_WORKLOADS:
                continue
            differing = [
                name for name in counts
                if name in base["metrics"] and name in new["metrics"]
                and base["metrics"][name]["value"]
                != new["metrics"][name]["value"]
            ]
            compared = sum(name in base["metrics"]
                           and name in new["metrics"] for name in counts)
            print(f"   {workload:<13s} exact counts: {compared} "
                  f"compared, {len(differing)} differ")
            for name in differing:
                print(f"      {name}: "
                      f"{base['metrics'][name]['value']} -> "
                      f"{new['metrics'][name]['value']}  differs")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_doc, new_doc = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(base_doc, new_doc, bench)


if __name__ == "__main__":
    sys.exit(main())
