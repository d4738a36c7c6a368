"""Tests for the unified Scenario API."""

import dataclasses

import pytest

from repro.experiments.executor import run_many
from repro.experiments.scenario import Scenario, run_scenario
from repro.fabric.params import DEFAULT_PARAMS, FabricParams
from repro.manager.timing import ProcessingTimeModel
from repro.workloads.traffic import TrafficSpec


def _full_scenario() -> Scenario:
    """A scenario with every optional field populated."""
    return Scenario(
        kind="churn",
        topology="mesh9",
        algorithm="serial_device",
        manager="partial",
        seed=3,
        change=None,
        timing=ProcessingTimeModel(fm_factor=2.0).to_dict(),
        params=dataclasses.replace(
            DEFAULT_PARAMS, bit_error_rate=1e-6
        ).to_dict(),
        max_retries=5,
        faults=2,
        mean_interval=1e-3,
        verify_sample=1,
        fm_options={"parallel_window": 4},
    )


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(kind="frobnicate")

    def test_unknown_manager_rejected(self):
        with pytest.raises(ValueError, match="manager"):
            Scenario(manager="imaginary")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            Scenario(algorithm="quantum")

    def test_unknown_change_kind_rejected(self):
        with pytest.raises(ValueError, match="change"):
            Scenario(kind="change", change="explode_switch")

    def test_bad_params_document_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown FabricParams"):
            Scenario(params={"bit_eror_rate": 1e-6})  # typo

    def test_model_objects_normalized_to_documents(self):
        scenario = Scenario(
            params=dataclasses.replace(DEFAULT_PARAMS,
                                       bit_error_rate=1e-6),
            timing=ProcessingTimeModel(fm_factor=2.0),
        )
        assert isinstance(scenario.params, dict)
        assert isinstance(scenario.timing, dict)
        assert scenario.fabric_params().bit_error_rate == 1e-6
        assert scenario.timing_model().fm_factor == 2.0

    def test_topology_alias_resolves(self):
        assert Scenario(topology="mesh9").spec().name == "3x3 mesh"


class TestSerialization:
    def test_round_trip_is_lossless(self):
        scenario = _full_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_of_defaults_is_lossless(self):
        scenario = Scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_to_dict_always_emits_every_field(self):
        document = Scenario().to_dict()
        expected = {f.name for f in dataclasses.fields(Scenario)}
        assert set(document) == expected | {"schema"}

    def test_unknown_key_rejected(self):
        document = Scenario().to_dict()
        document["faultz"] = 3
        with pytest.raises(ValueError, match="unknown Scenario"):
            Scenario.from_dict(document)

    def test_wrong_schema_rejected(self):
        document = Scenario().to_dict()
        document["schema"] = "repro/scenario/v0"
        with pytest.raises(ValueError, match="schema"):
            Scenario.from_dict(document)

    def test_fabric_params_round_trip_is_lossless(self):
        params = dataclasses.replace(DEFAULT_PARAMS, bit_error_rate=2e-6,
                                     error_seed=9)
        assert FabricParams.from_dict(params.to_dict()) == params

    def test_fabric_params_unknown_key_rejected(self):
        document = DEFAULT_PARAMS.to_dict()
        document["bandwith"] = 1.0  # typo
        with pytest.raises(ValueError, match="unknown FabricParams"):
            FabricParams.from_dict(document)


class TestJobs:
    def test_job_carries_scenario_and_round_trips(self):
        # A job *is* its scenario; it crosses the worker boundary pickled.
        import pickle
        scenario = _full_scenario()
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_executor_routes_through_scenario(self):
        scenario = Scenario(kind="change", topology="mesh9", seed=0)
        direct = scenario.run().asdict()
        via_executor = run_many([scenario]).raise_if_failed()
        assert via_executor.results[0].asdict() == direct

    def test_topology_spec_normalizes_to_its_document(self):
        from repro.experiments.io import spec_to_dict
        from repro.topology import make_mesh
        spec = make_mesh(2, 2)
        assert Scenario(topology=spec) == Scenario(
            topology=spec_to_dict(spec))


class TestShimsRemoved:
    """The PR 5 deprecation shims are gone; Scenario is the only API."""

    def test_run_change_experiment_removed(self):
        import repro
        import repro.experiments
        import repro.experiments.runner as runner
        assert not hasattr(runner, "run_change_experiment")
        assert not hasattr(repro.experiments, "run_change_experiment")
        assert not hasattr(repro, "run_change_experiment")

    def test_job_shims_removed(self):
        import repro.experiments
        import repro.experiments.executor as executor
        for name in ("reliability_job", "churn_job", "Job", "change_job",
                     "initial_job"):
            assert not hasattr(executor, name)
            assert not hasattr(repro.experiments, name)


class TestTrafficField:
    def test_traffic_spec_object_normalized_to_document(self):
        scenario = Scenario(kind="load", traffic=TrafficSpec(load=0.4))
        assert isinstance(scenario.traffic, dict)
        assert scenario.traffic_spec() == TrafficSpec(load=0.4)

    def test_traffic_round_trip_is_lossless(self):
        import json
        scenario = Scenario(
            kind="load", topology="mesh9",
            traffic=TrafficSpec(load=0.7, arrival="bursty",
                                pattern="hotspot").to_dict(),
        )
        wire = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(wire) == scenario

    def test_bad_traffic_document_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown TrafficSpec"):
            Scenario(kind="load", traffic={"laod": 0.5})  # typo
        with pytest.raises(ValueError, match="arrival"):
            Scenario(kind="load", traffic={"load": 0.5,
                                           "arrival": "psychic"})

    def test_idle_scenario_has_no_traffic_spec(self):
        assert Scenario(kind="load").traffic_spec() is None


class TestRunScenario:
    def test_discover_returns_stats_with_extras(self):
        stats = run_scenario(Scenario(kind="discover", topology="mesh9"))
        assert stats.devices_found == 18
        assert stats.mean_fm_time > 0
        assert stats.database_correct is True

    def test_change_defaults_to_remove_switch(self):
        result = Scenario(kind="change", topology="mesh9", seed=0).run()
        assert result.change == "remove_switch"
        assert result.database_correct


class TestDocumentIsolation:
    """``to_dict``/``from_dict`` must never alias the frozen scenario."""

    def test_mutating_rendered_document_leaves_scenario_intact(self):
        scenario = _full_scenario()
        before = scenario.to_dict()
        document = scenario.to_dict()
        document["params"]["bit_error_rate"] = 0.5
        document["fm_options"]["extra"] = True
        document["timing"]["fm_base"]["parallel"] = 1.0
        assert scenario.to_dict() == before

    def test_mutating_constructor_input_leaves_scenario_intact(self):
        from repro.experiments.io import spec_to_dict
        from repro.topology import make_irregular
        topology = spec_to_dict(make_irregular(4, extra_links=1,
                                               switch_ports=8, seed=2))
        options = {"parallel_window": 4}
        scenario = Scenario(kind="discover", topology=topology,
                            fm_options=options)
        before = scenario.to_dict()
        topology["switches"].append(["rogue", 4])
        options["rogue"] = True
        assert scenario.to_dict() == before


class TestJsonNormalForm:
    def test_tuples_normalize_to_lists_on_construction(self):
        from repro.experiments.io import spec_to_dict
        from repro.topology import make_irregular
        document = spec_to_dict(make_irregular(4, extra_links=1,
                                               switch_ports=8, seed=2))
        tupled = dict(document)
        tupled["switches"] = tuple(tuple(s) for s in document["switches"])
        tupled["links"] = tuple(tuple(l) for l in document["links"])
        assert Scenario(topology=tupled) == Scenario(topology=document)

    def test_json_round_trip_equals_original(self):
        import json
        for scenario in (_full_scenario(), Scenario()):
            wire = json.loads(json.dumps(scenario.to_dict()))
            assert Scenario.from_dict(wire) == scenario

    def test_embedded_spec_json_round_trip_equals_original(self):
        import json
        from repro.experiments.io import spec_to_dict
        from repro.topology import make_irregular
        scenario = Scenario(
            kind="change", change="add_switch",
            topology=spec_to_dict(make_irregular(5, extra_links=2,
                                                 switch_ports=8, seed=4)),
        )
        wire = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(wire) == scenario


class TestEagerTimingValidation:
    def test_missing_timing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing ProcessingTime"):
            Scenario(timing={"fm_factor": 2.0})

    def test_unknown_timing_fields_rejected(self):
        document = ProcessingTimeModel().to_dict()
        document["fm_fator"] = 2.0  # the misspelling that must not pass
        with pytest.raises(ValueError, match="unknown ProcessingTime"):
            Scenario(timing=document)

    def test_invalid_timing_values_rejected(self):
        document = ProcessingTimeModel().to_dict()
        document["fm_factor"] = -1.0
        with pytest.raises(ValueError, match="positive"):
            Scenario(timing=document)

    def test_timing_model_object_accepted_and_normalized(self):
        model = ProcessingTimeModel(fm_factor=2.0)
        scenario = Scenario(timing=model)
        assert scenario.timing == model.to_dict()
        assert scenario.timing_model() == model


class TestScenarioProperties:
    """Property-style round trips over generated scenarios."""

    def test_sampled_scenarios_round_trip(self):
        import json
        from repro.experiments.fuzz import sample_scenario
        for index in range(60):
            scenario = sample_scenario(11, index)
            document = scenario.to_dict()
            wire = json.loads(json.dumps(document))
            rebuilt = Scenario.from_dict(wire)
            assert rebuilt == scenario
            assert rebuilt.to_dict() == document

    def test_hypothesis_round_trip(self):
        import json
        from hypothesis import given, settings, strategies as st
        from repro.experiments.scenario import CHANGE_KINDS, KINDS
        from repro.manager.timing import ALGORITHMS

        @settings(max_examples=40, deadline=None)
        @given(
            kind=st.sampled_from(KINDS),
            topology=st.sampled_from(("mesh9", "torus9", "fattree4-2")),
            algorithm=st.sampled_from(ALGORITHMS),
            manager=st.sampled_from(("full", "partial")),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            change=st.none() | st.sampled_from(CHANGE_KINDS),
            faults=st.none() | st.integers(min_value=1, max_value=8),
            mean_interval=st.none() | st.sampled_from((1e-3, 2e-3)),
            fm_factor=st.sampled_from((0.5, 1.0, 4.0)),
            with_timing=st.booleans(),
        )
        def check(kind, topology, algorithm, manager, seed, change,
                  faults, mean_interval, fm_factor, with_timing):
            timing = (ProcessingTimeModel(fm_factor=fm_factor)
                      if with_timing else None)
            scenario = Scenario(
                kind=kind, topology=topology, algorithm=algorithm,
                manager=manager, seed=seed, change=change,
                faults=faults, mean_interval=mean_interval,
                timing=timing,
            )
            wire = json.loads(json.dumps(scenario.to_dict()))
            assert Scenario.from_dict(wire) == scenario

        check()


class TestFmOptionsRouting:
    """fm_options must reach the FM constructor for *every* kind."""

    def test_reliability_and_churn_reject_bogus_fm_option(self):
        for kind in ("reliability", "churn"):
            scenario = Scenario(kind=kind, topology="4-port 2-tree",
                                faults=1 if kind == "churn" else None,
                                fm_options={"bogus_option": 1})
            with pytest.raises(TypeError, match="bogus_option"):
                scenario.run()

    def test_reliability_accepts_real_fm_option(self):
        scenario = Scenario(kind="reliability", topology="4-port 2-tree",
                            fm_options={"parallel_window": 4})
        result = scenario.run()
        assert result.database_correct
