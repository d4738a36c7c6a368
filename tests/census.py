"""Line census: which lines of ``src/`` does anything but a test reach?

Runs three groups of commands in a scratch copy of the repository, each
child interpreter under a standard-library line tracer, and classifies
every code line of ``src/repro`` (the rule of ``test_loc_budget.py``:
a line carrying a non-comment token, docstrings excluded) by the first
group that reaches it:

``user``
    every CLI command, including the CI smokes (the family sweeps,
    fuzz, corpus replay, trace export, all five figures with
    ``--quick``), the three CI service smokes as they stand in
    ``.github/workflows/ci.yml``, and the five ``perf/run.py``
    workloads;
``examples``
    every script in ``examples/``;
``tests``
    the tier-1 suite (``pytest tests/``, without ``-x``: a test that
    fails under the tracer still reports what it reached), which
    includes the paper's claims (``tests/test_claims.py``).

A line no group reaches is reached by *nothing*.  A statement spread
over several lines is owned by its first line: all of its code lines
count as reached once the tracer reports any of them (or anything
nested inside it).

The tracer is a ``sitecustomize`` module put first on ``PYTHONPATH``,
so subprocesses, ``multiprocessing`` workers and service threads are
traced too — except a ``repro serve --churn`` child of a tier-1 test,
which runs untraced: under the tracer it does not exit within
``tests/service/test_cli.py``'s 30 s wait after SIGINT.  The ``user``
group's first CI service smoke runs ``repro serve --churn`` traced;
only the SIGINT exit path, which no smoke takes, goes uncounted.
Each process dumps ``{file: [lines]}`` as JSON when it exits
(``atexit``, and ``multiprocessing.util.Finalize`` for pool workers,
which leave through ``os._exit``).

Usage::

    python tests/census.py                    # all groups -> docs/CENSUS.md
    python tests/census.py --group user --data DIR    # one group, keep data
    python tests/census.py --report --data DIR        # table from kept data
    python tests/census.py --lines manager/fm.py --data DIR
                        # the module's lines no user command reaches

Groups of one ``--data`` directory can run in separate invocations (in
parallel, too); ``--report`` classifies whatever groups it finds.  The
whole census takes the better part of an hour on one core.

The exit code is non-zero when a ``user`` or ``examples`` command
exits non-zero: those are what users run, so a failure is a
broken path, not a census artefact.  A failing ``tests`` command is
only reported — tier-1 gates itself, and a test may fail under the
tracer alone, which slows every traced line.  Each command's stdout and
stderr are kept beside the group's dumps (``DIR/<group>/command-NNN.log``),
and the last 30 lines of a command that exits non-zero are printed, so
a failure names its test.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
from tests.test_loc_budget import code_line_numbers  # noqa: E402

GROUPS = ("user", "examples", "tests")

#: The tracer every child interpreter loads.  ``CENSUS_SRC`` is the
#: ``src/`` directory whose files count; ``CENSUS_OUT`` the directory
#: each process writes ``<pid>.json`` into.
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_SRC = os.environ.get("CENSUS_SRC")
_OUT = os.environ.get("CENSUS_OUT")


def _install():
    seen = {}
    skip = set()
    tracers = {}
    prefix = os.path.join(_SRC, "repro") + os.sep

    def trace(frame, event, arg):
        code = frame.f_code
        local = tracers.get(code)
        if local is None:
            if code in skip:
                return None
            if not code.co_filename.startswith(prefix):
                skip.add(code)
                return None
            lines = seen[code] = set()
            want = len({line for _, _, line in code.co_lines()
                        if line is not None})
            add = lines.add

            def local(frame, event, arg):
                add(frame.f_lineno)
                if len(lines) >= want:
                    # Every line of this code object has been seen:
                    # stop paying for it.
                    skip.add(code)
                    tracers.pop(code, None)
                    return None
                return local

            tracers[code] = local
        return local(frame, event, arg)

    def dump(*_args):
        merged = {}
        for code, lines in list(seen.items()):
            name = os.path.relpath(code.co_filename, _SRC)
            merged.setdefault(name, set()).update(lines)
        path = os.path.join(_OUT, f"{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({k: sorted(v) for k, v in merged.items()}, handle)

    def arm(_anchor=None):
        import multiprocessing.util
        multiprocessing.util.Finalize(None, dump, exitpriority=0)

    class _Anchor:
        pass

    global _ANCHOR
    _ANCHOR = _Anchor()
    import multiprocessing.util
    multiprocessing.util.register_after_fork(_ANCHOR, arm)
    arm()
    atexit.register(dump)
    sys.settrace(trace)
    threading.settrace(trace)


def _untraced():
    # A ``repro serve --churn`` child of a tier-1 test runs untraced:
    # under the tracer it outlives the test's wait for its exit, and
    # the ``user`` group's CI service smoke runs the same command.
    argv = sys.orig_argv
    return (os.environ.get("CENSUS_GROUP") == "tests"
            and argv[1:4] == ["-m", "repro", "serve"] and "--churn" in argv)


if _SRC and _OUT and not _untraced():
    _install()
'''


# -- classification -----------------------------------------------------------

def ownership(source: str) -> Tuple[Dict[int, int], Dict[int, int]]:
    """``(owner, parent)`` for one module.

    ``owner[line]`` is the first line of the innermost statement (or
    ``except`` clause) spanning ``line``; a decorated definition starts
    at its first decorator.  ``parent[first]`` is the first line of the
    statement enclosing the one starting at ``first`` (absent at module
    level)."""
    owner: Dict[int, int] = {}
    parent: Dict[int, int] = {}

    def visit(node, up: Optional[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.ExceptHandler)):
                visit(child, up)
                continue
            first = min([child.lineno] + [
                d.lineno for d in getattr(child, "decorator_list", ())])
            if up is not None and first != up:
                parent[first] = up
            for line in range(first, child.end_lineno + 1):
                owner[line] = first
            visit(child, first)

    visit(ast.parse(source), None)
    return owner, parent


def reached_lines(source: str, executed: Iterable[int]) -> Set[int]:
    """The code lines of ``source`` reached when the tracer reported
    ``executed``: every code line of each statement the report touches,
    and of every statement enclosing one."""
    owner, parent = ownership(source)
    hit: Set[int] = set()
    for line in executed:
        first = owner.get(line)
        while first is not None and first not in hit:
            hit.add(first)
            first = parent.get(first)
    return {line for line in code_line_numbers(source)
            if owner.get(line) in hit}


# -- the groups ---------------------------------------------------------------

def _repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def _service_smokes(work: Path) -> List[List[str]]:
    """The CI steps named "Service smoke...", as the scripts they run."""
    lines = (work / ".github/workflows/ci.yml").read_text().splitlines()
    commands = []
    for index, line in enumerate(lines):
        if not line.strip().startswith("- name: Service smoke"):
            continue
        start = next(i for i in range(index, len(lines))
                     if lines[i].rstrip().endswith("<<'EOF'"))
        end = next(i for i in range(start + 1, len(lines))
                   if lines[i].strip() == "EOF")
        script = textwrap.dedent("\n".join(lines[start + 1:end]))
        path = work / f"service_smoke_{len(commands)}.py"
        path.write_text(script + "\n")
        commands.append([sys.executable, str(path)])
    assert len(commands) == 3, "expected the three CI service smokes"
    return commands


def commands(group: str, work: Path) -> List[List[str]]:
    if group == "user":
        cli = [
            _repro("table1"),
            _repro("list"),
            _repro("topology"),
            _repro("topology", "mesh64"),
            _repro("discover", "--topology", "3x3 mesh",
                   "--algorithm", "parallel"),
            _repro("change", "--topology", "3x3 mesh", "--seed", "0"),
            _repro("reliability", "--topology", "3x3 mesh", "--ber", "0",
                   "--ber", "5e-5", "--jobs", "2"),
            _repro("churn", "--topology", "4x4 mesh", "--algorithm",
                   "parallel", "--seeds", "2", "--jobs", "2"),
            _repro("failover", "--topology", "mesh16",
                   "--restart-primary"),
            _repro("load", "--topology", "3x3 mesh", "--load", "0",
                   "--load", "0.9", "--jobs", "2"),
            _repro("fuzz", "--runs", "20", "--jobs", "2", "--seed", "0",
                   "--shrink"),
            _repro("replay", "--corpus", "tests/corpus", "--jobs", "2"),
            _repro("trace", "--topology", "mesh9", "--manager",
                   "serial_device", "--out", "trace.json",
                   "--jsonl", "trace.jsonl"),
        ] + [_repro("figure", n, "--quick") for n in "46789"]
        perf = [[sys.executable, "perf/run.py", "--workload", name,
                 "--seconds", "1"]
                for name in ("fig6_change", "discover_1k", "load_mesh16",
                             "serve_churn", "layer_probes")]
        return cli + _service_smokes(work) + perf
    if group == "examples":
        return [[sys.executable, str(path)]
                for path in sorted((work / "examples").glob("*.py"))]
    if group == "tests":
        return [[sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider", "tests"]]
    raise ValueError(f"unknown group {group!r}")


def run_group(group: str, data: Path) -> int:
    """Run ``group`` under the tracer in a scratch copy of the repo;
    the per-process dumps land in ``data/<group>``.  Returns how many
    commands exited non-zero."""
    out = data / group
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        work = Path(scratch) / "repo"
        shutil.copytree(REPO, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache"))
        site = Path(scratch) / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join([str(site), str(work / "src")]),
            CENSUS_SRC=str(work / "src"), CENSUS_OUT=str(out),
            CENSUS_GROUP=group,
        )
        for index, argv in enumerate(commands(group, work)):
            print(f"[{group}] {' '.join(argv[1:])}", flush=True)
            log = out / f"command-{index:03d}.log"
            with log.open("wb") as sink:
                code = subprocess.run(argv, cwd=work, env=env, stdout=sink,
                                      stderr=subprocess.STDOUT).returncode
            if code:
                failed += 1
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print(f"[{group}]   exit {code}; the last {len(tail)} lines "
                      f"of {log}:", *tail, sep="\n", flush=True)
    return failed


def unreached_runs(source: str,
                   executed: Iterable[int]) -> List[Tuple[int, int]]:
    """The code lines of ``source`` not reached when the tracer reported
    ``executed``, as ``(first, last)`` runs: a run ends only at a code
    line that was reached, not at a comment, blank or docstring."""
    reached = reached_lines(source, executed)
    runs: List[Tuple[int, int]] = []
    start = last = None
    for line in sorted(code_line_numbers(source)):
        if line in reached:
            if start is not None:
                runs.append((start, last))
            start = None
        else:
            start = line if start is None else start
            last = line
    if start is not None:
        runs.append((start, last))
    return runs


def print_unreached(module: str, data: Path) -> None:
    """Print ``module``'s code lines (``manager/fm.py``, below
    ``src/repro``) that no ``user`` command of ``data`` reached."""
    if not (data / "user").is_dir():
        raise SystemExit(f"no user group under {data}: run --group user")
    name = "repro/" + module.removeprefix("repro/")
    source = (REPO / "src" / name).read_text()
    executed = load_group(data, "user").get(name, ())
    runs = unreached_runs(source, executed)
    code = code_line_numbers(source)
    missed = len(code - reached_lines(source, executed))
    print(f"{name}: {missed} of {len(code)} code lines no user command "
          f"reaches, in {len(runs)} runs")
    for first, last in runs:
        print(f"  {first}" if first == last else f"  {first}-{last}")


# -- the table ----------------------------------------------------------------

def load_group(data: Path, group: str) -> Dict[str, Set[int]]:
    executed: Dict[str, Set[int]] = {}
    for dump in sorted((data / group).glob("*.json")):
        for name, lines in json.loads(dump.read_text()).items():
            executed.setdefault(name, set()).update(lines)
    return executed


def classify(data: Path) -> Dict[str, Dict[str, int]]:
    """``{module: {"code": n, group: n, ..., "none": n}}``, each line
    counted under the first group (in :data:`GROUPS` order) reaching it."""
    present = [g for g in GROUPS if (data / g).is_dir()]
    executed = {group: load_group(data, group) for group in present}
    table: Dict[str, Dict[str, int]] = {}
    src = REPO / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        name = str(path.relative_to(src))
        source = path.read_text()
        left = code_line_numbers(source)
        row = {"code": len(left)}
        for group in GROUPS:
            reached = (reached_lines(source, executed[group].get(name, ()))
                       if group in executed else set())
            row[group] = len(left & reached)
            left -= reached
        row["none"] = len(left)
        table[name] = row
    return table


def render(table: Dict[str, Dict[str, int]]) -> str:
    columns = ("code",) + GROUPS + ("none",)
    heads = ("module", "code", "user", "+examples", "tests only", "none",
             "user %")
    total = {c: sum(row[c] for row in table.values()) for c in columns}

    def line(name, row):
        share = 100.0 * row["user"] / row["code"] if row["code"] else 0.0
        cells = [name] + [f"{row[c]:,}" for c in columns] + [f"{share:.0f}"]
        return "| " + " | ".join(cells) + " |"

    out = [
        "# Line census",
        "",
        "Which code lines of `src/repro` something other than a test",
        "reaches.  Generated by `python tests/census.py` (see its",
        "docstring for the commands of each group); do not edit by hand.",
        "A line is counted under the first group that reaches it:",
        "`user` (every CLI command incl. the CI smokes, the three CI",
        "service smokes, the five `perf/run.py` workloads), then",
        "`examples/`, then tier-1 (`tests only`, the paper's claims",
        "included); `none` is reached by nothing.  Code lines follow",
        "`tests/test_loc_budget.py`; a multi-line statement is owned by",
        "its first line.",
        "",
        "| " + " | ".join(heads) + " |",
        "|" + "|".join(["---"] + ["---:"] * (len(heads) - 1)) + "|",
        line("**total**", total),
    ]
    out += [line(f"`{name[len('repro/'):]}`", row)
            for name, row in table.items()]
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--group", action="append", choices=GROUPS,
                        help="run only this group (repeatable)")
    parser.add_argument("--data", type=Path,
                        help="directory for the per-process dumps "
                             "(default: a temporary one)")
    parser.add_argument("--report", action="store_true",
                        help="run nothing; classify what --data holds")
    parser.add_argument("--lines", metavar="MODULE",
                        help="run nothing; print the code lines of MODULE "
                             "(below src/repro) no user command of --data "
                             "reaches")
    parser.add_argument("--out", type=Path,
                        default=REPO / "docs" / "CENSUS.md",
                        help="where to write the table")
    args = parser.parse_args(argv)
    if (args.report or args.group or args.lines) and args.data is None:
        parser.error("--report, --group and --lines need --data")
    if args.lines:
        print_unreached(args.lines, args.data)
        return 0
    with tempfile.TemporaryDirectory(prefix="census-data-") as default:
        data = args.data or Path(default)
        failed = {}
        if not args.report:
            for group in args.group or GROUPS:
                failed[group] = run_group(group, data)
        if args.report or not args.group:
            args.out.write_text(render(classify(data)))
            print(f"wrote {args.out}")
        for group, count in failed.items():
            if count:
                print(f"[{group}] {count} command(s) exited non-zero "
                      "under the tracer")
    return int(any(failed.get(group) for group in ("user", "examples")))


if __name__ == "__main__":
    sys.exit(main())
