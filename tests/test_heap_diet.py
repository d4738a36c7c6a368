"""The heap diet changes nothing a run can observe, under the sanitizer.

Two kinds of heap entry almost never act: a PI-4 request's retry timer
(the completion nearly always closes the transaction first) and the
URGENT kick a port takes when its link is attached (it finds nothing
queued unless a packet was sent before the run).  ``src/`` keeps only
the slot either would have held and pushes it when it can act
(``TransactionEngine._timers``, ``Port._kick``).  This differential
runs each scenario twice — inside :func:`tests.reference.eager.eager`,
which pushes every such entry, and as ``src/`` stands — and compares
the device trace-hook stream ``(time, device, port, kind, packet)``,
``Scenario.run().asdict()``, ``fm.counters`` and the FM's database.
Both runs go through :class:`tests.sanitizer.SanitizedEnvironment`,
so the credit, packet and time invariants hold all the way through
either.

The set: the first ``HEAP_DIET_FUZZ_RUNS`` (default 20) scenarios of
the fuzz sampler at seed 0, the regression corpus, and the family
smokes CI runs from the command line.  ``python tests/test_heap_diet.py``
prints the sanitizer's overhead per scenario.
"""

import os
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.fuzz import iter_corpus, load_corpus_entry, \
    sample_scenario
from repro.experiments.scenario import Scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.reference.eager import eager  # noqa: E402
from tests.sanitizer import sanitized  # noqa: E402

CORPUS = Path(__file__).resolve().parent / "corpus"

FUZZ_RUNS = int(os.environ.get("HEAP_DIET_FUZZ_RUNS", "20"))

#: What the CLI smokes of ``.github/workflows/ci.yml`` run, one
#: scenario per family.
SMOKES = {
    "change": Scenario(kind="change", topology="3x3 mesh", seed=0),
    "reliability": Scenario(kind="reliability", topology="3x3 mesh",
                            params={"bit_error_rate": 5e-5}),
    "churn": Scenario(kind="churn", topology="4x4 mesh", seed=1),
    "failover-warm": Scenario(kind="failover", topology="mesh16",
                              restart_primary=True),
    "load": Scenario(kind="load", topology="3x3 mesh",
                     traffic={"load": 0.9}),
}


def scenarios():
    cases = [(f"fuzz-{i}", sample_scenario(0, i)) for i in range(FUZZ_RUNS)]
    cases += [(path.stem, load_corpus_entry(path)[1])
              for path in iter_corpus(CORPUS)]
    return cases + list(SMOKES.items())


class _Capture:
    """A tracer that keeps the simulation a run builds."""

    setup = None

    def install(self, setup):
        self.setup = setup

    def finalize(self, setup):
        pass


def observe(scenario: Scenario) -> dict:
    """One sanitized run of ``scenario``: everything the diet must not
    change, and the sanitizers' check counts."""
    capture = _Capture()
    with sanitized() as sanitizers:
        result = scenario.run(tracer=capture)
    fm = capture.setup.fm
    return {
        "result": result.asdict(),
        "counters": dict(fm.counters),
        "database": fm.database.devices(),
        "streams": [s.stream for s in sanitizers],
        "checks": sum(sum(s.checks.values()) for s in sanitizers),
    }


CASES = scenarios()


@pytest.mark.parametrize("scenario", [case[1] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_the_diet_is_invisible_and_the_invariants_hold(scenario):
    with eager():
        before = observe(scenario)
    after = observe(scenario)
    assert after["checks"] > 0 and before["checks"] > 0
    assert after["streams"] and after["streams"][0]
    for key in ("streams", "result", "counters", "database"):
        assert after[key] == before[key], key


def main() -> None:
    """Print, per scenario, the plain and the sanitized run's seconds."""
    total_plain = total_sanitized = 0.0
    for name, scenario in CASES:
        start = time.perf_counter()
        scenario.run()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        observe(scenario)
        watched = time.perf_counter() - start
        total_plain += plain
        total_sanitized += watched
        print(f"{name:28s} {plain:7.3f} s {watched:7.3f} s "
              f"x{watched / plain:5.2f}")
    print(f"{'total':28s} {total_plain:7.3f} s {total_sanitized:7.3f} s "
          f"x{total_sanitized / total_plain:5.2f}")


if __name__ == "__main__":
    main()
