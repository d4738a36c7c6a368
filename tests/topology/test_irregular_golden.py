"""Golden-identity check for the irregular generator's memory rewrite.

``make_irregular`` switched from materialized free-port lists to an
incremental port cursor; its output must be byte-identical for every
``(num_switches, extra_links, seed)``.  The fuzz corpus recorded the
exact pre-rewrite output of one spec (``irregular-6+2 (seed=7)``)
inside ``tests/corpus/change-4084250f81ec.json`` — regenerating and
comparing pins the identity against history, not against ourselves.
(The corpus filename is content-addressed over the whole scenario
dict, so it changes whenever ``Scenario`` gains or loses fields; the
embedded topology spec is carried over verbatim.)
"""

import json
from pathlib import Path

from repro.experiments.io import spec_to_dict
from repro.topology import make_irregular

CORPUS_ENTRY = (
    Path(__file__).parent.parent / "corpus" / "change-4084250f81ec.json"
)


class TestIrregularGolden:
    def test_matches_corpus_recorded_spec(self):
        recorded = json.loads(CORPUS_ENTRY.read_text())
        recorded_spec = recorded["scenario"]["topology"]
        regenerated = spec_to_dict(
            make_irregular(6, extra_links=2, switch_ports=8, seed=7)
        )
        assert regenerated == recorded_spec

    def test_large_generation_is_deterministic(self):
        a = make_irregular(200, extra_links=80, switch_ports=16, seed=3)
        b = make_irregular(200, extra_links=80, switch_ports=16, seed=3)
        assert a.links == b.links
        a.validate()
