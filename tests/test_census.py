"""The line census's classifier (``tests/census.py``) on a synthetic
module: what counts as a code line, and who owns it."""

import json

from tests.census import main, ownership, reached_lines, unreached_runs

SOURCE = '''\
"""Module docstring,
over two lines."""


def f(x):
    """Docstring."""
    total = (x +
             1)
    if total > 2:
        return total
    else:
        return 0


@staticmethod
def g():
    try:
        pass
    except (ValueError,
            KeyError):
        raise
'''


def test_docstrings_are_not_code_lines():
    # Everything runs; the docstrings (lines 1-2 and 6) still count
    # for nothing.
    reached = reached_lines(SOURCE, range(1, 25))
    assert not reached & {1, 2, 6}
    assert reached == {5, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20,
                       21}


def test_a_multi_line_statement_is_owned_by_its_first_line():
    owner, _ = ownership(SOURCE)
    assert owner[8] == owner[7] == 7
    assert owner[20] == owner[19] == 19      # a two-line except clause
    assert owner[16] == owner[15] == 15      # a decorator starts its def
    # The tracer reporting only the continuation line reaches both.
    assert reached_lines(SOURCE, [8]) >= {7, 8}
    assert reached_lines(SOURCE, [20]) >= {19, 20}


def test_a_nested_statement_reaches_what_encloses_it():
    # ``return total`` ran: its ``if`` and its ``def`` ran too, but
    # neither the other branch nor the statement before it is claimed.
    assert reached_lines(SOURCE, [10]) == {5, 9, 10, 11}
    # ``else:`` (line 11) belongs to its ``if``.
    assert reached_lines(SOURCE, [12]) == {5, 9, 11, 12}


def test_unreached_lines_come_in_runs_that_comments_do_not_split():
    # Only ``return total`` ran: the statement before the ``if`` (7-8)
    # is one run; the other branch's ``return 0`` (12; ``else:`` is the
    # ``if``'s) and all of ``g`` (15-21) are another, as the blank lines
    # between them hold no code line that ran.
    assert unreached_runs(SOURCE, [10]) == [(7, 8), (12, 21)]
    assert unreached_runs(SOURCE, range(1, 25)) == []
    assert unreached_runs(SOURCE, []) == [(5, 21)]


def test_lines_prints_what_no_user_command_reaches(tmp_path, capsys):
    (tmp_path / "user").mkdir()
    (tmp_path / "user" / "1.json").write_text(
        json.dumps({"repro/__main__.py": [3, 5]}))
    assert main(["--lines", "__main__.py", "--data", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "repro/__main__.py: 1 of 3 code lines no user command reaches, "
        "in 1 runs",
        "  7",
    ]
    # A module no dump names was reached by nothing.
    main(["--lines", "repro/_limits.py", "--data", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[1:] == ["  11"]
