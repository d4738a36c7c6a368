"""Source LOC as a tracked number: a ratchet, not a sentence in a PR.

A *code line* is a line of ``src/**/*.py`` that carries at least one
token other than a comment, with docstrings (module, class, function)
excluded — so comments, blank lines and documentation are free, and
reformatting a docstring never moves the number.  The ceilings below
are the counts at the commit that last changed them; a PR that takes
the tree above one fails here and has to either pay for the new lines
by deleting others or raise the ceiling on purpose, in the diff, where
a reviewer sees it.  Consolidation PRs lower them.

``python tests/test_loc_budget.py`` prints the per-package table (CI
does, so the trajectory is readable from the logs).
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
#: only the route-programming switch had made more than a call).
TOTAL_CEILING = 11_318
#: Code lines in ``repro/sim/`` — the number ROADMAP item 4 tracks
#: (804 before PR 16; what is left is the callback kernel plus
#: ``Process``/``Timeout`` for the five loop-shaped workloads; 442
#: while ``Environment.now`` was a property; 439 while ``Counter``
#: built closures and ``Tally`` lived here; 379 while ``Event.fail``
#: did).
SIM_CEILING = 369
#: Code lines in ``repro/experiments/`` + ``repro/cli.py`` (3,666
#: before PR 13, 3,071 after it; 3,064 before PR 22 shared the change
#: protocol and the reliability totals; 3,048 before PR 24 made
#: ``experiments/__init__.py`` a table; 2,997 while ``experiments/io.py``
#: also saved and loaded files).
EXPERIMENTS_AND_CLI_CEILING = 2_961

#: Code lines in ``repro/routing/graph.py``: the whole graph library
#: of this code base, and meant to stay one screen of code.
GRAPH_CEILING = 60

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
