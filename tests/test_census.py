"""The line census's classifier (``tests/census.py``) on a synthetic
module: what counts as a code line, and who owns it."""

from tests.census import ownership, reached_lines

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
