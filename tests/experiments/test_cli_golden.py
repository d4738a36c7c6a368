"""Byte-identity of what the experiment commands print.

``golden_cli/<name>.txt`` holds the stdout of each invocation below as
recorded at the commit *before* the family commands were derived from
:data:`repro.experiments.scenario.FAMILIES` (PR 13): ``discover``,
``change --seeds 2`` and the four CI smoke sweeps.  Every run is seeded
and the tables carry no wall-clock value, so the text must reproduce
byte for byte — title, column order, number formatting, trailing
padding — and so must the exit code.  A deliberate change to a table is
a change to the golden file in the same commit.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden_cli"

#: name -> (argv, exit code)
INVOCATIONS = {
    "discover": (["discover"], 0),
    "change": (["change", "--seeds", "2"], 0),
    "reliability": (["reliability", "--topology", "3x3 mesh",
                     "--ber", "0", "--ber", "5e-5"], 0),
    "churn": (["churn", "--topology", "4x4 mesh",
               "--algorithm", "parallel", "--seeds", "2"], 0),
    "failover": (["failover", "--topology", "mesh16",
                  "--restart-primary"], 0),
    "load": (["load", "--topology", "3x3 mesh",
              "--load", "0", "--load", "0.9"], 0),
}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_and_exit_code_match_the_recording(name, capsys):
    argv, expected_code = INVOCATIONS[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.txt").read_text()
