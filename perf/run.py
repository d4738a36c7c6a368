#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end metrics measured
with tracing off, and a per-layer wall-time ledger from a traced run.

    python3 perf/run.py [--seed N] [--workload NAME] [--trace [0|1]]

Without ``--workload`` every workload runs, one fresh child after the
other, and the last line printed is one JSON document with all of
them.  With ``--workload`` (how the benchmark driver calls it, adding
``--seconds``) the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace 1``.
See ``perf/README.md``.
"""

from __future__ import annotations

import sys

# 103 .pyc files are tracked at HEAD; nothing here may rewrite them.
sys.dont_write_bytecode = True

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
LOCK = PERF / ".run.lock"

#: Seconds a child may take before it is killed (the driver allows 180).
CHILD_TIMEOUT = 170.0

#: Fresh children whose set-up is timed for ``setup_s`` (the median).
SETUPS = 5


def declared() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(name: str, seed: int, seconds: float, trace: bool,
          setup_only: bool = False) -> dict:
    """Run one child interpreter to completion; returns its report."""
    env = dict(os.environ)
    # A run may not write into the tracked tree.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    child = subprocess.run(
        [sys.executable, str(PERF / "workloads.py"), name, str(seed),
         str(seconds), str(int(trace)), str(int(setup_only))],
        stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT,
    )
    if child.returncode != 0:
        raise RuntimeError(f"{name}: child exited with code "
                           f"{child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All children of one workload, strictly one after another."""
    setups = []
    if not trace:
        setups = [spawn(name, seed, seconds, trace, setup_only=True)["setup_s"]
                  for _ in range(SETUPS - 1)]
    report = spawn(name, seed, seconds, trace)
    setups.append(report["metrics"]["setup_s"])
    report["metrics"]["setup_s"] = statistics.median(setups)
    report["setup_reps_s"] = setups
    return report


def units_of(bench: dict) -> dict:
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def outcome(report: dict) -> dict:
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"]}


def contract(report: dict, bench: dict, trace: bool) -> dict:
    """The result object of the benchmark contract.  Every declared
    name is present; one this workload does not measure reads 0."""
    names = bench["per_layer"] if trace else bench["end_to_end"]
    measured = report["metrics"]
    return {
        **outcome(report),
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0),
                        "unit": m["unit"]}
            for m in names
        },
    }


def show(name: str, seed: int, trace: bool, report: dict,
         bench: dict) -> None:
    """Every measured metric by name with its unit, and the reps."""
    units = units_of(bench)
    reps = report["reps"]
    walls = [r["wall_s"] for r in reps]
    mode = "traced" if trace else "untraced"
    print(f"== {name}  seed {seed}, {mode}: 1 warm-up rep, "
          f"{len(reps)} timed rep(s)")
    for i, r in enumerate(reps, 1):
        print(f"   rep {i}: {r['raw_s']:.4f} s raw / host factor "
              f"{r['host_factor']:.3f} = {r['wall_s']:.4f} s")
    notes = {
        "wall_s": (f"median of {len(walls)} reps at reference host "
                   f"speed; min {min(walls):.4f}, max {max(walls):.4f}"),
        "setup_s": ("median of " + ", ".join(
            f"{s:.4f}" for s in report["setup_reps_s"])
            + " (fresh children)"),
        "req_p50_ms": "per rep over all its requests; median of reps",
        "req_p99_ms": "per rep over all its requests; median of reps",
    }
    for metric, value in report["metrics"].items():
        note = f"   ({notes[metric]})" if metric in notes else ""
        print(f"   {metric:<48s} {value:>16.6g} {units[metric]}{note}")
    absent = [m["name"]
              for m in bench["per_layer" if trace else "end_to_end"]
              if m["name"] not in report["metrics"]]
    if absent:
        print(f"   not measured by this workload (read 0 in the result): "
              f"{len(absent)} names, e.g. {absent[0]}")
    share = report["failed"] / report["attempted"]
    print(f"   {'fail_share':<48s} {share:>16.6g} ratio   "
          f"({report['failed']} of {report['attempted']} operations failed)")
    for line in report["failures"][:10]:
        print(f"   FAILED: {line}")
    if report["unmapped"]:
        print(f"   modules without a layer, charged to ext: "
              f"{', '.join(report['unmapped'])}")


def host_block() -> dict:
    """Where and when: lets a noisy box show in the artifact."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1min": os.getloadavg()[0],
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only and "
                        "end with the contract's result object")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only input knob (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from "
                        "a cProfile run; 0 (default): end-to-end metrics")
    parser.add_argument("--out", type=Path, help="also store the "
                        "document of a run of all workloads in this "
                        "file, under 'traced' or 'untraced'")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: {SRC}/repro not found: no program to "
              f"measure", file=sys.stderr)
        return 2
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {', '.join(names)})")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)

    with open(LOCK, "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("perf/run.py: another perf/run.py is running in this "
                  "tree; two at once measure each other",
                  file=sys.stderr)
            return 3
        if args.workload is not None:
            report = run_workload(args.workload, args.seed, seconds, trace)
            show(args.workload, args.seed, trace, report, bench)
            result = contract(report, bench, trace)
            print(json.dumps(result))
            return 0 if result["correct"] else 1

        document = {
            "host": host_block(), "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "workloads": {},
        }
        units = units_of(bench)
        for name in names:
            report = run_workload(name, args.seed, seconds, trace)
            show(name, args.seed, trace, report, bench)
            document["workloads"][name] = {
                **outcome(report),
                "failures": report["failures"],
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in report["metrics"].items()},
                "reps": {"wall_s": [r["wall_s"] for r in report["reps"]],
                         "raw_s": [r["raw_s"] for r in report["reps"]],
                         "setup_s": report["setup_reps_s"]},
            }
        if args.out is not None:
            stored = (json.loads(args.out.read_text())
                      if args.out.exists() else {})
            stored["traced" if trace else "untraced"] = document
            args.out.write_text(json.dumps(stored, indent=1) + "\n")
        print(json.dumps(document))
        failed = sum(w["failed"] for w in document["workloads"].values())
        return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
