"""Shrinker unit tests: greedy minimization with stub evaluators."""

import pytest

from repro.experiments.io import spec_to_dict
from repro.experiments.scenario import Scenario
from repro.experiments.shrink import (
    shrink_candidates,
    shrink_scenario,
)
from repro.manager.timing import ProcessingTimeModel
from repro.topology import make_irregular, parse_irregular_name


def always_fails(scenario):
    return ("boom", "still failing")


def never_fails(scenario):
    return None


FULL = Scenario(
    kind="churn", topology="8x8 mesh", algorithm="serial_packet",
    manager="partial", seed=17, faults=6, mean_interval=2e-3,
    verify_sample=3,
    timing=ProcessingTimeModel(fm_factor=2.0, device_factor=0.5),
    fm_options={"parallel_window": 4},
)


class TestShrinkScenario:
    def test_everything_optional_is_stripped(self):
        result = shrink_scenario(FULL, "boom", "detail", always_fails,
                                 max_attempts=200)
        minimal = result.scenario
        assert minimal.timing is None
        assert minimal.fm_options is None
        assert minimal.mean_interval is None
        assert minimal.verify_sample is None
        assert minimal.faults == 1
        assert minimal.seed == 0
        # Topology walked down to the smallest Table 1 entry.
        assert minimal.topology == "4-port 2-tree"
        assert result.reason == "boom"
        assert result.steps > 0
        assert result.attempts >= result.steps

    def test_fixpoint_when_nothing_reproduces(self):
        result = shrink_scenario(FULL, "boom", "detail", never_fails)
        assert result.scenario == FULL
        assert result.steps == 0

    def test_different_reason_is_rejected(self):
        # Candidates fail, but for another reason: no shrink accepted.
        result = shrink_scenario(
            FULL, "boom", "detail",
            lambda s: ("other_reason", "different failure"),
        )
        assert result.scenario == FULL
        assert result.steps == 0

    def test_max_attempts_caps_evaluations(self):
        calls = []

        def counting(scenario):
            calls.append(scenario)
            return ("boom", "x")

        result = shrink_scenario(FULL, "boom", "detail", counting,
                                 max_attempts=3)
        assert len(calls) == 3
        assert result.attempts == 3

    def test_evaluator_exception_becomes_error_reason(self):
        def explodes(scenario):
            raise RuntimeError("worker died")

        # Original reason is the matching error class: shrink proceeds.
        result = shrink_scenario(FULL, "error:RuntimeError", "d",
                                 explodes, max_attempts=50)
        assert result.steps > 0
        # Original reason differs: every candidate is rejected.
        result = shrink_scenario(FULL, "boom", "d", explodes)
        assert result.scenario == FULL

    def test_shrink_is_deterministic(self):
        first = shrink_scenario(FULL, "boom", "d", always_fails,
                                max_attempts=200)
        second = shrink_scenario(FULL, "boom", "d", always_fails,
                                 max_attempts=200)
        assert first.scenario == second.scenario
        assert first.attempts == second.attempts


class TestIrregularTopologyShrink:
    def test_embedded_spec_shrinks_smaller(self):
        spec = make_irregular(8, extra_links=3, switch_ports=8, seed=5)
        scenario = Scenario(kind="discover",
                            topology=spec_to_dict(spec))
        result = shrink_scenario(scenario, "boom", "d", always_fails,
                                 max_attempts=200)
        assert isinstance(result.scenario.topology, dict)
        shrunk = parse_irregular_name(result.scenario.topology["name"])
        assert shrunk is not None
        assert shrunk[0] < 8  # fewer switches than the original

    def test_candidates_preserve_recorded_seed(self):
        spec = make_irregular(6, extra_links=2, switch_ports=8, seed=9)
        scenario = Scenario(kind="discover",
                            topology=spec_to_dict(spec))
        for candidate in shrink_candidates(scenario):
            if not isinstance(candidate.topology, dict):
                continue
            recorded = parse_irregular_name(candidate.topology["name"])
            assert recorded is not None
            assert recorded[2] == 9

    def test_unparseable_spec_name_yields_no_topology_candidates(self):
        spec = make_irregular(4, extra_links=1, switch_ports=8, seed=2)
        document = spec_to_dict(spec)
        document["name"] = "hand-built"
        scenario = Scenario(kind="discover", topology=document)
        for candidate in shrink_candidates(scenario):
            # Non-topology simplifications (seed) may still appear.
            assert candidate.topology == scenario.topology


class TestCandidateOrder:
    def test_topology_candidates_come_first(self):
        candidates = list(shrink_candidates(FULL))
        assert candidates, "expected candidates for a rich scenario"
        assert candidates[0].topology != FULL.topology

    def test_candidates_are_valid_and_distinct(self):
        seen = set()
        for candidate in shrink_candidates(FULL):
            assert candidate != FULL
            key = str(sorted(candidate.to_dict().items(), key=str))
            seen.add(key)
        assert len(seen) >= 5

    def test_smallest_table1_has_no_topology_candidates(self):
        scenario = Scenario(kind="discover", topology="4-port 2-tree",
                            seed=0)
        assert list(shrink_candidates(scenario)) == []

    def test_add_switch_normalizes_to_remove_switch(self):
        scenario = Scenario(kind="change", topology="4-port 2-tree",
                            change="add_switch", seed=0)
        kinds = [c.change for c in shrink_candidates(scenario)]
        assert kinds == ["remove_switch"]

    def test_rate_halving_candidates(self):
        scenario = Scenario(
            kind="reliability", topology="4-port 2-tree", seed=0,
            params={"bit_error_rate": 1e-4},
        )
        with_params = [c.params for c in shrink_candidates(scenario)
                       if c.params is not None]
        assert {"bit_error_rate": 0.0} in with_params
        assert {"bit_error_rate": 5e-5} in with_params
