"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Print the paper's Table 1 (topologies evaluated).
``discover``
    Run one discovery on a Table 1 topology and print its stats.
``change``
    Run the full change-assimilation experiment (transient period,
    random hot add/remove, PI-5 detection, rediscovery).
``figure``
    Regenerate one of the paper's figures (4, 6, 7, 8, 9) as ASCII.
``reliability``
    Sweep discovery over lossy links (bit error rate x algorithm) and
    report mean discovery time and recovery work per loss point.
``churn``
    Soak discovery under mid-walk topology churn (seeded fault bursts
    preferring mid-discovery instants) and report the recovery work,
    time to converge, and the consistency auditor's verdict.
``failover``
    Kill the fabric manager under churn and hand the fabric to a
    standby that installs its mirror of the primary's database and
    repairs the differences: detection and recovery latency, and
    (with ``--restart-primary``) the ownership-epoch fencing duel
    with the resurrected old primary.
``load``
    Run the change-assimilation protocol while application traffic
    saturates the fabric, sweeping offered load x TC->VC mapping
    (strict-priority bypass vs mixed), and report discovery-time and
    PI-5 detection-latency inflation vs the idle baseline.  Exit code
    is non-zero unless every run's database matches ground truth.
``trace``
    Run one traced scenario and export its span/packet timeline as a
    Chrome-trace JSON (load it in ``chrome://tracing`` or Perfetto),
    printing the per-phase discovery-time breakdown.
``fuzz``
    Sample seed-deterministic scenarios across the whole configuration
    space, run them through the parallel executor, auto-shrink every
    failure to a minimal reproducer, and (with ``--corpus``) archive
    the reproducers as JSON regression-corpus entries.
``replay``
    Replay every scenario in a regression corpus directory and verify
    each one passes (converged, correct database, clean audit).
``serve``
    Host a live simulation as a control-plane daemon speaking
    line-delimited JSON over TCP: topology/path/status/metrics
    queries, hot mutations, and a streamed event feed, optionally
    under continuous churn (see ``docs/SERVICE.md``).
``topology``
    List the registered topology families and aliases, or describe
    one name (device/switch/link counts).
``list``
    List the available topologies, aliases, algorithms, and managers.

``serve``, ``churn``, ``failover``, ``load``, and ``fuzz`` may run for
a long time; Ctrl-C stops them gracefully (injectors cancelled,
one-line summary, exit code 130).

Flags are uniform across the experiment commands: ``--topology``
accepts Table 1 names or shell-friendly aliases (``mesh16``),
``--manager`` selects the FM flavour (``full``/``partial``) or — as a
shorthand — a discovery algorithm key (``--manager serial_device`` ==
``--manager full --algorithm serial_device``), ``--seed``/``--seeds``/
``--jobs`` shape a sweep, and ``--trace PATH`` additionally runs one
traced representative scenario in-process and exports its timeline.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from .experiments.churn import MEAN_INTERVAL
from .experiments.executor import run_sweep
from .experiments.family import ALGORITHM, COUNT, MANAGER, Axis, Family, report
from .experiments.figures import (
    figure4,
    figure6,
    figure7,
    figure8,
    figure9,
    figure_table1,
)
from .experiments.report import render_kv, render_phase_breakdown
from .experiments.scenario import FAMILIES, Scenario
from .experiments.shrink import DEFAULT_MAX_ATTEMPTS
from .experiments.sweep import plan, representative
from .manager.timing import ALGORITHMS
from .topology.registry import canonical_topology_name, topology_catalog


def resolve_variant(manager: str, algorithm: str) -> Tuple[str, str]:
    """Resolve ``(--manager, --algorithm)`` to ``(manager, algorithm)``.

    ``--manager`` given as an algorithm key means "the full FM running
    that algorithm" and overrides ``--algorithm``.
    """
    if manager in ALGORITHMS:
        return "full", manager
    return manager, algorithm


def _topology_arg(value: str) -> str:
    """Argparse type: any known topology name, alias, or generator
    spec (``mesh16``, ``dragonfly-k4m8``, ``fattree2-1024``, ...)."""
    try:
        return canonical_topology_name(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _output_path(value: str) -> str:
    """Argparse type: a file path in a directory that exists, so a
    bad output path fails before the run instead of after it."""
    if not os.path.isdir(os.path.dirname(value) or "."):
        raise argparse.ArgumentTypeError(f"no directory for {value!r}")
    return value


# -- shared parent parsers ----------------------------------------------------

def _topology_parent(default: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--topology", type=_topology_arg, default=default, metavar="NAME",
        help=f"topology name, alias, or generator spec, e.g. mesh16 or "
             f"dragonfly-k4m8 (default {default!r})",
    )
    return parent


def _add_axis(parser: argparse.ArgumentParser, axis: Axis) -> None:
    """One family setting as an argparse flag (``dest`` = axis name)."""
    if axis.default is False:
        parser.add_argument(axis.flag, dest=axis.name, help=axis.help,
                            action="store_true")
        return
    kwargs = dict(dest=axis.name, help=axis.help, type=axis.type,
                  choices=axis.choices, metavar=axis.metavar,
                  default=axis.default)
    if axis.swept:
        kwargs.update(action="append", default=None)
    parser.add_argument(axis.flag, **kwargs)


def _axes_parent(*axes: Axis) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for axis in axes:
        _add_axis(parent, axis)
    return parent


def _sweep_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0)
    parent.add_argument("--seeds", type=COUNT, default=1, metavar="N",
                        help="run seeds seed..seed+N-1 (default 1)")
    parent.add_argument("--jobs", type=COUNT, default=1, metavar="N",
                        help="worker processes (1 = in-process)")
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace", type=_output_path, metavar="PATH", default=None,
        help="additionally run one traced representative scenario "
             "in-process and export its timeline as Chrome-trace JSON",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASI fabric discovery reproduction "
                    "(Robles-Gomez et al.)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1")
    sub.add_parser("list", help="list topologies and algorithms")

    for family in FAMILIES.values():
        sub.add_parser(
            family.kind, help=family.help,
            parents=[_topology_parent(family.topology),
                     _axes_parent(*family.axes), _sweep_parent(),
                     _trace_parent()],
        )

    trace = sub.add_parser(
        "trace", help="run one traced scenario, export its timeline",
        parents=[_topology_parent("4x4 mesh"),
                 _axes_parent(ALGORITHM, MANAGER)],
    )
    trace.add_argument("--kind", default="discover",
                       choices=tuple(FAMILIES))
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", metavar="PATH", required=True,
                       type=_output_path, help="Chrome-trace JSON output path")
    trace.add_argument("--jsonl", metavar="PATH", type=_output_path,
                       help="additionally export a JSONL event stream")
    trace.add_argument("--no-packets", action="store_true",
                       help="skip per-hop packet capture (spans and "
                            "metrics only; much smaller traces)")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", choices=("4", "6", "7", "8", "9"))
    figure.add_argument("--quick", action="store_true",
                        help="use reduced topology suites")
    figure.add_argument("--seeds", type=COUNT, default=1, metavar="N",
                        help="seeds per topology for figures 6/9 "
                             "(default 1)")
    figure.add_argument("--jobs", type=COUNT, default=1, metavar="N",
                        help="worker processes for the underlying sweep "
                             "(1 = in-process; figure 7 is always serial)")

    fuzz = sub.add_parser(
        "fuzz", help="fuzz scenarios, auto-shrink failures",
    )
    fuzz.add_argument("--runs", type=COUNT, default=50, metavar="N",
                      help="scenarios to sample (default 50)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed every sampled scenario derives "
                           "from (default 0)")
    fuzz.add_argument("--jobs", type=COUNT, default=1, metavar="N",
                      help="worker processes (1 = in-process)")
    fuzz.add_argument("--corpus", metavar="DIR", default=None,
                      help="write each failure's minimal scenario as a "
                           "JSON corpus entry into DIR")
    fuzz.add_argument("--shrink", default=True,
                      action=argparse.BooleanOptionalAction,
                      help="auto-shrink failures to minimal "
                           "reproducers (default on)")
    fuzz.add_argument("--max-shrink", type=int, metavar="N",
                      default=DEFAULT_MAX_ATTEMPTS,
                      help="candidate evaluations per shrink (default "
                           f"{DEFAULT_MAX_ATTEMPTS})")
    fuzz.add_argument("--inject", action="append", default=None,
                      metavar="KEY=VALUE",
                      help="force an FM constructor option into every "
                           "sampled scenario (repeatable; VALUE is "
                           "parsed as JSON, else kept as a string) — "
                           "for exercising the find/shrink loop")

    replay = sub.add_parser(
        "replay", help="replay the regression corpus",
    )
    replay.add_argument("--corpus", metavar="DIR", default="tests/corpus",
                        help="corpus directory (default tests/corpus)")
    replay.add_argument("--jobs", type=COUNT, default=1, metavar="N",
                        help="worker processes (1 = in-process)")

    serve = sub.add_parser(
        "serve", help="host a live simulation behind a JSON API",
        parents=[_topology_parent("4x4 mesh"),
                 _axes_parent(ALGORITHM, MANAGER)],
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7817,
                       help="TCP port; 0 picks an ephemeral one "
                            "(default 7817)")
    serve.add_argument("--seed", type=int, default=0,
                       help="churn randomness seed (default 0)")
    serve.add_argument("--churn", action="store_true",
                       help="keep a fault injector disturbing the "
                            "fabric while serving")
    _add_axis(serve, MEAN_INTERVAL)
    serve.add_argument("--standby", action="store_true",
                       help="run a standby FM on a second endpoint so "
                            "the kill_fm / promote_standby verbs work")

    topology = sub.add_parser(
        "topology", help="list or describe registered topologies",
    )
    topology.add_argument("name", nargs="?", default=None,
                          help="a topology name, alias, or generator "
                               "spec to describe; omit to list all")
    return parser


# -- trace export -------------------------------------------------------------

def _export_trace(scenario: Scenario, out: str,
                  jsonl: Optional[str] = None,
                  packets: bool = True) -> int:
    """Run ``scenario`` traced; export and summarize the timeline."""
    from .obs.breakdown import discovery_phase_breakdown, discovery_spans
    from .obs.export import (
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from .obs.session import TraceSession
    session = TraceSession(packets=packets)
    scenario.run(tracer=session)
    label = f"{session.meta.get('topology', '?')} [{scenario.kind}]"
    document = write_chrome_trace(session, out, label=label)
    schema_problems = validate_chrome_trace(document)
    tree_problems = session.spans.validate()
    rows = [
        discovery_phase_breakdown(session.spans, span)
        for span in discovery_spans(session.spans)
        if span.end is not None
    ]
    if rows:
        print(render_phase_breakdown(
            rows, title=f"Discovery-time breakdown ({label})",
        ))
    hops = len(session.packets) if session.packets is not None else 0
    print(render_kv("Trace export", {
        "out": out,
        "spans": len(session.spans.spans),
        "instants": len(session.spans.instants),
        "packet_hops": hops,
        "unfinished_spans": session.meta.get("unfinished_spans", 0),
        "span_tree_ok": not tree_problems,
        "chrome_schema_ok": not schema_problems,
    }))
    for problem in (tree_problems + schema_problems)[:10]:
        print(f"  problem: {problem}", file=sys.stderr)
    if jsonl:
        lines = write_jsonl(session, jsonl, label=label)
        print(f"  jsonl: {jsonl} ({lines} records)")
    return 0 if not (tree_problems or schema_problems) else 1


# -- commands -----------------------------------------------------------------

def _cmd_table1(args) -> int:
    _rows, text = figure_table1()
    print(text)
    return 0


def _print_catalog(heading: str) -> None:
    catalog = topology_catalog()
    print(heading)
    for entry in catalog["table1"]:
        suffix = f"  (alias: {entry['alias']})" if entry["alias"] else ""
        print(f"  {entry['name']}{suffix}")
    print("\nGenerator families (parameterised names):")
    for line in catalog["families"]:
        print(f"  {line}")


def _cmd_list(args) -> int:
    _print_catalog("Topologies (Table 1):")
    print("\nDiscovery algorithms:")
    for algorithm in ALGORITHMS:
        print(f"  {algorithm}")
    print("\nManagers:")
    print("  full     (every change is a full rediscovery)")
    print("  partial  (burst-based partial change assimilation)")
    return 0


def _axis_values(family: Family, args) -> dict:
    """The family's settings as parsed: swept flags as value tuples,
    the ``--manager`` algorithm shorthand resolved."""
    values = {}
    for axis in family.axes:
        value = getattr(args, axis.name)
        if axis.swept:
            value = axis.default if value is None else tuple(value)
        values[axis.name] = value
    values["manager"], algorithm = resolve_variant(values["manager"], None)
    if algorithm is not None:
        for axis in family.axes:
            if axis.field == "algorithm":
                values[axis.name] = (algorithm,) if axis.swept else algorithm
    return values


def _cmd_family(args) -> int:
    """Every experiment family's command: sweep the declared axes over
    the seeds, print the family's report, optionally trace the
    representative run; exit 0 iff every run passes the family's
    verdict (the fuzz oracle's)."""
    family = FAMILIES[args.command]
    values = _axis_values(family, args)
    seeds = range(args.seed, args.seed + max(1, args.seeds))
    scenarios = plan(family, args.topology, seeds=seeds, **values)
    results = run_sweep(scenarios, workers=args.jobs,
                        progress=len(scenarios) > 1)
    print(report(family, scenarios, results, topology=args.topology,
                 **values))
    if args.trace:
        code = _export_trace(
            representative(family, args.topology, seed=args.seed, **values),
            args.trace,
        )
        if code != 0:
            return code
    return 0 if all(family.verdict(r) is None for r in results) else 1


def _parse_inject(pairs: Optional[List[str]]) -> Optional[dict]:
    """``--inject KEY=VALUE`` flags as an FM-options dict.

    Values parse as JSON (``true``, ``3``, ``0.5``); anything that
    does not is kept as a plain string.
    """
    if not pairs:
        return None
    import json
    options = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"--inject expects KEY=VALUE, got {pair!r}"
            )
        try:
            options[key] = json.loads(raw)
        except ValueError:
            options[key] = raw
    return options


def _cmd_fuzz(args) -> int:
    from .experiments.fuzz import run_fuzz
    report = run_fuzz(
        args.runs, seed=args.seed, workers=args.jobs,
        shrink=args.shrink, corpus_dir=args.corpus,
        inject=_parse_inject(args.inject),
        max_shrink_attempts=args.max_shrink,
        progress=args.runs > 1,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_replay(args) -> int:
    from .experiments.fuzz import replay_corpus
    outcomes = replay_corpus(args.corpus, workers=args.jobs)
    if not outcomes:
        print(f"replay: no corpus entries under {args.corpus}")
        return 1
    failed = [o for o in outcomes if not o.ok]
    for outcome in outcomes:
        status = ("ok" if outcome.ok
                  else f"FAIL {outcome.reason} ({outcome.detail})")
        print(f"  {outcome.path.name}: {status}")
    print(f"replay: {len(outcomes)} corpus entr"
          f"{'y' if len(outcomes) == 1 else 'ies'}, "
          f"{len(failed)} failure(s)")
    return 0 if not failed else 1


def _cmd_trace(args) -> int:
    manager, algorithm = resolve_variant(args.manager, args.algorithm)
    scenario = Scenario(
        kind=args.kind, topology=args.topology, algorithm=algorithm,
        manager=manager, seed=args.seed,
    )
    return _export_trace(scenario, args.out, jsonl=args.jsonl,
                         packets=not args.no_packets)


def _cmd_figure(args) -> int:
    from .topology.table1 import table1_topology
    quick_suite = None
    if args.quick:
        quick_suite = [
            table1_topology(n) for n in ("3x3 mesh", "4x4 mesh")
        ]
    seeds = range(max(1, args.seeds))
    if args.number == "4":
        _data, text = figure4(topologies=quick_suite, jobs=args.jobs)
    elif args.number == "6":
        _data, text = figure6(topologies=quick_suite, seeds=seeds,
                              jobs=args.jobs)
    elif args.number == "7":
        _data, text = figure7()
    elif args.number == "8":
        spec = table1_topology("4x4 mesh" if args.quick else "8x8 mesh")
        _data, text = figure8(spec=spec, jobs=args.jobs)
    else:
        _data, text = figure9(topologies=quick_suite, seeds=seeds,
                              jobs=args.jobs)
    print(text)
    return 0


def _cmd_serve(args) -> int:
    from .service.harness import start_service
    manager, algorithm = resolve_variant(args.manager, args.algorithm)
    handle = start_service(
        topology=args.topology, algorithm=algorithm, manager=manager,
        host=args.host, port=args.port, seed=args.seed,
        churn=args.churn, mean_interval=args.mean_interval,
        standby=args.standby,
    )
    churn_note = (f", churn mean_interval={args.mean_interval:g}s"
                  if args.churn else "")
    print(f"serving {args.topology} [{algorithm}/{manager}] on "
          f"{handle.host}:{handle.port}{churn_note}", flush=True)
    print("Ctrl-C to stop, or send the 'shutdown' op.", flush=True)
    how, code = "shutdown", 0
    try:
        # The service loop thread exits when a client sends `shutdown`.
        while handle._thread.is_alive():
            handle._thread.join(timeout=0.2)
    except KeyboardInterrupt:
        how, code = "\ninterrupted", 130
    summary = handle.stop()
    print(f"{how}: served {summary['requests']} requests over "
          f"{summary['connections']} connections, "
          f"{summary['events_published']} events published, "
          f"{summary['errors']} errors; snapshot version "
          f"{summary['version']}, {summary['events_stepped']} kernel "
          f"events in {summary['batches']} batches, memo "
          f"{summary['memo_hits']} hits / {summary['memo_misses']} misses",
          flush=True)
    return code


def _cmd_topology(args) -> int:
    from .topology.registry import describe_topology
    if args.name is None:
        _print_catalog("Table 1 topologies:")
        return 0
    try:
        info = describe_topology(args.name)
    except ValueError as exc:
        print(f"topology: {exc}", file=sys.stderr)
        return 1
    print(render_kv(f"Topology {info['name']}", info))
    return 0


#: Commands where Ctrl-C means "stop gracefully": every sweep (an
#: aborted worker pool or in-process run) plus the daemon.  The handler
#: (or :func:`main`) prints a one-line summary and exits 130.
INTERRUPTIBLE = frozenset(FAMILIES) | {"serve", "fuzz"}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    commands = {
        "table1": _cmd_table1,
        "list": _cmd_list,
        "figure": _cmd_figure,
        "trace": _cmd_trace,
        "fuzz": _cmd_fuzz,
        "replay": _cmd_replay,
        "serve": _cmd_serve,
        "topology": _cmd_topology,
        **dict.fromkeys(FAMILIES, _cmd_family),
    }
    command = commands[args.command]
    if args.command in INTERRUPTIBLE:
        try:
            return command(args)
        except KeyboardInterrupt:
            # `serve` handles the interrupt itself (it must stop the
            # injector and the driver thread); sweeps land here.
            print(f"\ninterrupted: {args.command} stopped early",
                  file=sys.stderr, flush=True)
            return 130
    return command(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
