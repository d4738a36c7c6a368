"""Source LOC as a tracked number: a ratchet, not a sentence in a PR.

A *code line* is a line of ``src/**/*.py`` that carries at least one
token other than a comment, with docstrings (module, class, function)
excluded — so comments, blank lines and documentation are free, and
reformatting a docstring never moves the number.  The ceilings below
are the counts at the commit that last changed them; a PR that takes
the tree above one fails here and has to either pay for the new lines
by deleting others or raise the ceiling on purpose, in the diff, where
a reviewer sees it.  Consolidation PRs lower them.

The same holds for options — the independently settable values of a
surface: :data:`OPTION_CEILINGS`.

``python tests/test_loc_budget.py`` prints the per-package table and
the option counts (CI does, so the trajectory is readable from the
logs).
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Code lines in all of ``src/`` (13,240 before PR 13; 12,641 after it
#: — PR 14's read memo is paid for inside ``service/``; PR 15's
#: ``call_later`` and integer counters by the lambdas, ``__setattr__``
#: and closures they replace; 12,633 before PR 16's kernel diet and
#: request barrier; 12,111 before PR 18, whose 60-line graph module is
#: paid for by the second route-tree builder, the CRC-32 table and the
#: duplicate hop builder it deleted; 12,080 before PR 19 merged
#: ``VirtualChannel`` and ``CreditCounter`` into one transmit record and
#: deleted the grant queue nothing called; 12,011 before PR 20, whose
#: direct transmit/serve paths and inline credit arithmetic are paid for
#: by the four turn helpers, the second ``link_ports``, the ``now``
#: property and the entity's reply helpers; 12,004 before and after
#: PR 21, whose hand-written PI-4 constructors and ``DeviceRecord``
#: route memo are paid for by ``_render``, ``_cost``, ``with_tag``, the
#: classification functions, the FM's second claim decoder and the
#: callerless ``vc_for_tc`` / ``is_management`` / ``active_ports`` /
#: the packet-cost key helper; 11,796 after PR 22 made the observation plane
#: one of each — one counter type, a registry of three mappings, one
#: packet recorder — and deleted ``workloads/base.py`` and the second
#: copy of the change protocol; 11,684 after PR 24 replaced the package
#: import lists and ``__all__`` lists by one table each — the tables,
#: ``repro._surface`` and the lazy ``FAMILIES`` mapping together cost 112
#: lines fewer than the lists; 11,682 once the process-wide
#: route-packing cache was deleted and the warm standby's record loops
#: became ``TopologyDatabase.copy()``; 11,498 once partial assimilation
#: became a value the one ``FabricManager`` is built with and the
#: test-only path distributor was deleted; 11,318 once the surface the
#: line census (``tests/census.py``, ``docs/CENSUS.md``) showed no user
#: path reaching was deleted — seven options, the random FM-kill
#: plane, the workload ``stats``/``describe``/``start`` nothing called,
#: the path table's programming helpers, ``db_endpoint_routes``, the
#: experiments' file I/O, ``Event.fail``, and the FM's ready hook that
#: only the route-programming switch had made more than a call); 11,322
#: since the service's front-end became one ``asyncio.Protocol`` per
#: connection: the line splitting, in-order resumption and flow control
#: that replace the stream reader's line reads, the write lock and the
#: feed pump are this package's code, not the library's (+16 in
#: ``server.py``), and the CPU-seconds gauges of ``metrics`` cost 5
#: more; the tap, which no longer keeps what it forwards, pays back 12,
#: and the port counters, summed one slot at a time over a flat port
#: list, 5; 11,039 once no switch carries a multicast forwarding table
#: or capability and the FM no group manager (no user path sent a
#: multicast packet a table could replicate: every PI-0 packet is the
#: management entity's software flood, −238), the standby's heartbeat
#: and mirror sync became one probe loop (−16) and ``--profile``, a
#: copy of ``python -m cProfile``, went (−29); 10,869 once the FM
#: election went with the PI-0 path only it used — the candidacy flood,
#: ``PI_MULTICAST`` and the election priority (−190; the primary and
#: the standby are placed by rule, as every user path already did) —
#: and the CLI's numeric flags gained their range checks (+20); 10,759
#: once the figure scripts became the claims table
#: (``tests/claims.py``) and what only they reached went: the ASCII
#: scatter plots, the S1 overhead builder and the FM's switch that
#: timed requests against its own backlog (−110); 10,702 once the
#: fault injector and the standby became callback chains and
#: ``Process``, ``Initialize``, ``Timeout`` and the event-failure path
#: left the kernel (−81 in ``sim/``; +2 in ``workloads/``; +24 in
#: ``manager/``, most of it the warm standby re-resolving a heartbeat
#: route that churn cut); 10,673 once the heap held only entries that
#: can act — the retry timers' per-period FIFOs and ``_expire`` (+27 in
#: ``protocols/transaction.py``), the reserved attach kick (+4 in
#: ``fabric/port.py``) and the kernel's URGENT slots (+20 in ``sim/``)
#: paid for by the 18 debugging ``__repr__`` methods the line census
#: showed nothing reaching (−80 across ``sim/``, ``fabric/``,
#: ``manager/``, ``obs/``, ``protocols/``, ``routing/``, ``topology/``;
#: ``Port``'s and ``Link``'s stay: error messages and tests print them);
#: 10,614 once the experiments' bench-trajectory writer, which only
#: the bench scripts imported, went with the kernel and service bench
#: scripts ``perf/`` already measures (−59; the scale sweep writes its
#: own rows); 10,469 once collaborative discovery went — the claiming
#: Parallel walk, the coordinator and its merge, which only
#: ``examples/`` and claims row X1 ran (−148) — the model's three
#: guessed knobs became constants (±0) and a crashed driver refused
#: mutations (+2); 10,460 once each wire codec took one pass — the
#: header's ``_pack_words`` and ``_fields`` went (−18), paying for the
#: one-pass turn pool's deferred port error (+5), the baseline read's
#: single render (+3) and the ``driver-stopped`` error code (+1);
#: 10,437 once a partial-assimilation burst became a discovery walk
#: (``manager/discovery/partial.py``): the FM's six burst fields, the
#: nested region walk and its wiring, the walk's borrowed span and the
#: fencing pass's second claim-order test and hand-rolled barrier went
#: (fm.py 736 → 557, −179), paying for the walk module (+128), the
#: walk lifecycle the FM no longer reaches into (+14 in ``base.py``)
#: and the one claim-order rule (+13 in ``capability/claim.py``);
#: the ``PARTIAL`` label moved to ``manager/timing.py`` (±0); 10,458
#: once ``Environment.run`` held the cyclic collector's young trigger
#: up while it dispatches — the process-wide ``Hold`` the service
#: harness's switch interval now shares (+21 in ``sim/``, −4 in
#: ``service/``) — the standby's probe chain stopped leaving a
#: reference cycle behind (+3) and a demotion ended the walk in
#: progress (+1); 10,403 once the restart policy and its churn harness
#: lost the options only tests set — the FM's restart backoff and
#: budget, ``run_until_quiescent``'s poll, settle and raise switch with
#: ``DiscoveryAborted``, the injector's hold poll and limit, the two
#: ``Scenario`` fields and their plumbing — and the runner's
#: ground-truth check became the auditor's graph comparison (−55);
#: 10,387 once the standby watched the primary one way in both
#: takeover modes — its private heartbeat timeout, the warm-only
#: monitoring branches and the service's start-after-ready wait went,
#: paying for the verify pass that takes a silent primary as dead
#: (−16); 10,377 once the port's serialization-done timer called
#: ``_tx_start`` itself (``_tx_done`` went, −2) and the failover run
#: recorded a churn partition in its result and stated the fencing rule
#: once (+8, paid for by the standby's detection clock started after
#: the kill, −3, the pair builder's second takeover-mode check, −2, and
#: the CLI's check for a command its parser cannot yield, −2), which
#: left the fault injector's ``on_fault`` hook without a user (−6);
#: 10,377 still once the service's front-end ran on a ``selectors``
#: loop of its own instead of asyncio (``server.py`` +85: the loop,
#: the transport with its watermarks, the registry thread), paid for
#: inside ``service/`` by the harness's asyncio bring-up and its second
#: takeover-mode check (−33), the kill/promote outcome and traffic
#: gauges written once each (−9) and the client's one-use write helper
#: (−1), and outside it by the torus sharing the mesh's grid builder
#: (−27), the fabric's one activation routine (−3) and five accessors
#: the line census showed nothing reaching (−12: the traffic
#: generator's ``packet_bytes``/``tc``, ``Link.tx_time``,
#: ``ConfigSpace.__contains__``, ``ClaimCapability.clear``); 10,363
#: once the standby's heartbeat became its only read of the primary:
#: every fifth answered one syncs the mirror, and the second read
#: chain, its timer and the attribute-name plumbing that told the two
#: apart went, as did the tee's guard that unsubscribing already
#: makes unreachable and the constructor's second set of defaults
#: (−14, the sync's skip of a mid-walk primary included); 10,325 once
#: the takeover mode stopped being a setting: the standby installs its
#: mirror and rediscovers only when the mirror is unusable, so the
#: mode's tuple, checks, field, flag, column, fuzz draw and the CLI's
#: one-word-for-every-value axis spelling went (−38); 10,213 once the
#: figure builders built their own ``Scenario`` grids — the per-figure
#: sweeps ``sweep.py`` kept beside ``plan``, their options no user
#: path set and ``sweep_family``, which only tests called, went, and
#: Fig. 6 and Fig. 9 share one per-run aggregation (−93) — and a
#: service connection became one object owning its socket, buffers
#: and watermarks instead of a protocol over a transport (−19); 10,091
#: once the three discovery algorithms became one exploration paced by
#: a row of limits each (``PACING``): the three subclasses, their
#: registry and the four scheduling hooks went (−110), and with them
#: ``ProcessingTimeModel.with_factors``, which only a test called (−12),
#: while the figures' change grid read its seeds once and took Fig. 9's
#: timing models itself (±0).
TOTAL_CEILING = 10_091
#: Code lines in ``repro/sim/`` — the number ROADMAP item 4 tracks
#: (804 before PR 16; 442 while ``Environment.now`` was a property;
#: 439 while ``Counter`` built closures and ``Tally`` lived here; 379
#: while ``Event.fail`` did; 369 while generator ``Process``/``Timeout``
#: classes, event failure and ``Environment.schedule`` did — what is
#: left is the callback kernel, with ``Environment.process``/``timeout``
#: as a callback trampoline for the kernel probes of ``perf/``'s
#: ``layer_probes``, their only driver; 288
#: before the exact URGENT ``has_passed``: its form and its state — the
#: last URGENT pop and the drain, kept in the event branch of ``run``/
#: ``step`` and at the drain exit — plus ``reserve_urgent``,
#: ``schedule_urgent`` and ``quiet()``'s look at the last reserved
#: slot, +20, less the two debugging ``__repr__`` nothing reached, −6;
#: 302 before ``run`` held the collector's young trigger up with
#: ``Hold``, the one process-wide-setting helper, +21).
SIM_CEILING = 323
#: Code lines in ``repro/experiments/`` + ``repro/cli.py`` (3,666
#: before PR 13, 3,071 after it; 3,064 before PR 22 shared the change
#: protocol and the reliability totals; 3,048 before PR 24 made
#: ``experiments/__init__.py`` a table; 2,997 while ``experiments/io.py``
#: also saved and loaded files; 2,961 while ``cli.py`` had its own
#: ``--profile``; 2,932 before the numeric flags were range-checked at
#: parse time — ``family.checked`` and its five ranges, the output-path
#: check and their imports, less ``serve``'s second ``--mean-interval``
#: declaration, now the churn family's axis; 2,952 while
#: ``experiments/`` drew ASCII scatter plots and had the S1 builder;
#: 2,844 while ``experiments/`` wrote the bench scripts' trajectory
#: files; 2,785 while ``run_until_quiescent`` took a poll, a settle
#: time and a raise switch, ``Scenario`` carried the restart budget and
#: backoff, and the runner diffed the graphs itself; 2,760 while the
#: failover pair gave the standby its own request timeout; 2,757 before
#: a failover run recorded a churn partition itself; 2,755 while a
#: failover scenario chose its takeover mode; 2,729 while ``sweep.py``
#: kept a grid builder per figure and ``sweep_family``).
EXPERIMENTS_AND_CLI_CEILING = 2_636

#: Code lines in ``repro/routing/graph.py``: the whole graph library
#: of this code base, and meant to stay one screen of code.
GRAPH_CEILING = 60

#: Options per surface: a function's (or ``__init__``'s) parameters
#: with a default, a dataclass's fields.  12, 20, 4 and 7 before the
#: restart backoff and budget, the quiescence loop's poll, settle and
#: raise switch and the injector's hold poll and limit became
#: constants — no caller outside the tests set another value.  The
#: standby's 4 counted ``primary``, optional while only a warm standby
#: read the primary's PI-5 tee, and its 3 the heartbeat interval, the
#: miss threshold and the mode, whose defaults disagreed with the pair
#: builder's, the one path every user takes: they are required now.
#: ``Scenario`` had 18 while it carried the takeover mode.
OPTION_CEILINGS = {
    "manager/fm.py:FabricManager": 10,
    "experiments/scenario.py:Scenario": 17,
    "experiments/churn.py:run_until_quiescent": 1,
    "workloads/faults.py:FaultInjector": 5,
    "manager/failover.py:StandbyManager": 0,
}

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def code_line_numbers(source: str) -> set:
    """The numbers of the code lines of ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.difference_update(
                range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    return len(code_line_numbers(source))


def count_by_package() -> dict:
    """Code lines per ``repro`` sub-package; top-level modules
    (``cli.py``, ``__init__.py``...) are listed by file name."""
    counts: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC / "repro").parts
        counts[parts[0]] = counts.get(parts[0], 0) + code_lines(
            path.read_text())
    return counts


def count_options(surface: str) -> int:
    """Options of ``surface`` (``"module/path.py:Name"``), read from
    its source, so nothing is imported."""
    path, name = surface.split(":")
    tree = ast.parse((SRC / "repro" / path).read_text())
    node = next(node for node in tree.body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name)
    if isinstance(node, ast.ClassDef):
        init = [item for item in node.body
                if isinstance(item, ast.FunctionDef)
                and item.name == "__init__"]
        if not init:  # a dataclass
            return sum(isinstance(item, ast.AnnAssign) for item in node.body)
        node = init[0]
    return len(node.args.defaults) + sum(
        default is not None for default in node.args.kw_defaults)


def test_source_stays_under_the_ceilings():
    counts = count_by_package()
    total = sum(counts.values())
    lab = counts["experiments"] + counts["cli.py"]
    assert total <= TOTAL_CEILING, (
        f"src/ has {total} code lines, ceiling {TOTAL_CEILING}")
    assert lab <= EXPERIMENTS_AND_CLI_CEILING, (
        f"experiments/ + cli.py have {lab} code lines, ceiling "
        f"{EXPERIMENTS_AND_CLI_CEILING}")
    assert counts["sim"] <= SIM_CEILING, (
        f"sim/ has {counts['sim']} code lines, ceiling {SIM_CEILING}")


def test_options_stay_under_the_ceilings():
    for surface, ceiling in OPTION_CEILINGS.items():
        count = count_options(surface)
        assert count <= ceiling, (
            f"{surface} has {count} options, ceiling {ceiling}")


def test_the_graph_module_stays_small():
    graph = code_lines((SRC / "repro/routing/graph.py").read_text())
    assert graph <= GRAPH_CEILING, (
        f"routing/graph.py has {graph} code lines, ceiling "
        f"{GRAPH_CEILING}")


def test_counter_ignores_comments_blanks_and_docstrings():
    source = (
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing comment: still a code line\n"
        '    """Docstring."""\n'
        "    return (x +\n"
        "            1)\n"
    )
    assert code_lines(source) == 3


if __name__ == "__main__":
    table = count_by_package()
    for name, count in sorted(table.items()):
        print(f"{name:14s} {count:6d}")
    print(f"{'total':14s} {sum(table.values()):6d}  "
          f"(ceiling {TOTAL_CEILING})")
    print(f"{'lab (exp+cli)':14s} "
          f"{table['experiments'] + table['cli.py']:6d}  "
          f"(ceiling {EXPERIMENTS_AND_CLI_CEILING})")
    print(f"{'sim':14s} {table['sim']:6d}  (ceiling {SIM_CEILING})")
    print("options")
    for surface, ceiling in OPTION_CEILINGS.items():
        print(f"  {surface:40s} {count_options(surface):3d}  "
              f"(ceiling {ceiling})")
