"""Tests for topology JSON serialization."""

import json

import pytest

from repro.experiments.io import IoError, spec_from_dict, spec_to_dict
from repro.experiments.scenario import Scenario
from repro.sim import Environment
from repro.topology import make_fattree, make_irregular, make_mesh


def _change(seed):
    return Scenario(kind="change", topology=spec_to_dict(make_mesh(2, 2)),
                    seed=seed).run()


class TestSpecRoundtrip:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: make_mesh(3, 3),
            lambda: make_fattree(4, 2),
            lambda: make_irregular(5, extra_links=2, seed=9),
        ],
        ids=["mesh", "tree", "irregular"],
    )
    def test_dict_roundtrip(self, builder):
        spec = builder()
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone.name == spec.name
        assert clone.switches == spec.switches
        assert clone.endpoints == spec.endpoints
        assert clone.links == spec.links
        assert clone.fm_host == spec.fm_host

    def test_file_roundtrip_builds_identical_fabric(self, tmp_path):
        # The form a scenario's custom topology takes in a corpus file.
        spec = make_mesh(2, 3)
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        clone = spec_from_dict(json.loads(path.read_text()))
        a = spec.build(Environment())
        b = clone.build(Environment())
        a.power_up()
        b.power_up()
        ga, gb = a.graph(), b.graph()
        assert set(ga.nodes) == set(gb.nodes)
        assert set(map(frozenset, ga.edges)) == set(map(frozenset, gb.edges))

    def test_schema_mismatch_rejected(self):
        with pytest.raises(IoError, match="schema"):
            spec_from_dict({"schema": "something/else"})

    def test_malformed_document_rejected(self):
        doc = spec_to_dict(make_mesh(2, 2))
        del doc["links"]
        with pytest.raises(IoError, match="malformed"):
            spec_from_dict(doc)

    def test_invalid_spec_content_rejected(self):
        doc = spec_to_dict(make_mesh(2, 2))
        doc["links"].append(["ghost", 0, "sw_0_0", 9])
        with pytest.raises(Exception):
            spec_from_dict(doc)


class TestResultsRoundtrip:
    def test_family_round_trips(self):
        result = _change(0)
        # The Fig. 9 grouping axis is part of a run's plain-data form,
        # and that form survives JSON unchanged.
        assert result.asdict()["family"] == "mesh"
        assert json.loads(json.dumps(result.asdict())) == result.asdict()
