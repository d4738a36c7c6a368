"""Fuzzing-lab tests: sampler determinism, the find/shrink loop, and
byte-stable corpus output."""

import json

import pytest

from repro.experiments.fuzz import (
    CORPUS_SCHEMA,
    FuzzFailure,
    _classify_error,
    corpus_entry,
    corpus_filename,
    evaluate_scenario,
    iter_corpus,
    load_corpus_entry,
    render_corpus_entry,
    replay_corpus,
    run_fuzz,
    sample_scenario,
    write_corpus,
)
from repro.experiments.scenario import KINDS, Scenario

INJECT = {"definitely_not_an_fm_option": True}


class TestSampler:
    def test_same_seed_and_index_is_identical(self):
        for index in range(40):
            assert sample_scenario(7, index) == sample_scenario(7, index)

    def test_different_indices_differ(self):
        scenarios = {sample_scenario(0, i).to_dict().__str__()
                     for i in range(40)}
        assert len(scenarios) > 30

    def test_covers_every_kind(self):
        kinds = {sample_scenario(0, i).kind for i in range(60)}
        assert kinds == set(KINDS)

    def test_samples_embedded_irregular_specs(self):
        assert any(isinstance(sample_scenario(0, i).topology, dict)
                   for i in range(30))

    def test_every_sample_round_trips_through_json(self):
        for index in range(40):
            scenario = sample_scenario(3, index)
            wire = json.loads(json.dumps(scenario.to_dict()))
            assert Scenario.from_dict(wire) == scenario

    def test_inject_lands_in_fm_options(self):
        scenario = sample_scenario(0, 0, inject=INJECT)
        assert scenario.fm_options == INJECT


class TestClassification:
    def test_executor_error_string_maps_to_reason(self):
        assert _classify_error("TypeError: bad kwarg") == \
            ("error:TypeError", "bad kwarg")
        assert _classify_error("TimeoutError") == \
            ("error:TimeoutError", "TimeoutError")

    def test_evaluate_scenario_passes_clean_run(self):
        scenario = Scenario(kind="discover", topology="4-port 2-tree")
        assert evaluate_scenario(scenario) is None

    def test_evaluate_scenario_reports_exception_reason(self):
        scenario = Scenario(kind="discover", topology="4-port 2-tree",
                            fm_options=INJECT)
        reason, detail = evaluate_scenario(scenario)
        assert reason == "error:TypeError"
        assert "definitely_not_an_fm_option" in detail


class TestRunFuzz:
    def test_default_space_is_clean(self):
        report = run_fuzz(6, seed=0, workers=1, shrink=False)
        assert report.ok
        assert report.runs == 6
        assert len(report.scenarios) == 6
        assert "0 failure(s)" in report.summary()

    def test_worker_count_does_not_change_the_outcome(self):
        serial = run_fuzz(5, seed=1, workers=1, shrink=True,
                          inject=INJECT)
        parallel = run_fuzz(5, seed=1, workers=3, shrink=True,
                            inject=INJECT)
        assert [f.index for f in serial.failures] == \
            [f.index for f in parallel.failures]
        assert [f.minimal for f in serial.failures] == \
            [f.minimal for f in parallel.failures]

    def test_injected_failures_are_found_and_shrunk(self):
        report = run_fuzz(4, seed=0, workers=2, shrink=True,
                          inject=INJECT)
        assert not report.ok
        assert len(report.failures) == 4
        for failure in report.failures:
            assert failure.reason == "error:TypeError"
            assert failure.shrunk is not None
            assert failure.minimal.fm_options == INJECT
            # The shrunk scenario still reproduces the failure.
            verdict = evaluate_scenario(failure.minimal)
            assert verdict is not None
            assert verdict[0] == failure.reason

    def test_shrink_off_keeps_the_sampled_scenario(self):
        report = run_fuzz(2, seed=0, workers=1, shrink=False,
                          inject=INJECT)
        for failure in report.failures:
            assert failure.shrunk is None
            assert failure.minimal == failure.scenario


class TestCorpus:
    def test_corpus_bytes_are_deterministic(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for directory, workers in ((first, 2), (second, 1)):
            run_fuzz(3, seed=0, workers=workers, shrink=True,
                     inject=INJECT, corpus_dir=directory)
        names = [p.name for p in iter_corpus(first)]
        assert names == [p.name for p in iter_corpus(second)]
        assert names, "expected corpus entries from injected failures"
        for name in names:
            assert (first / name).read_bytes() == \
                (second / name).read_bytes()

    def test_filename_derives_from_content(self):
        scenario = Scenario(kind="discover", topology="4-port 2-tree")
        name = corpus_filename(scenario)
        assert name.startswith("discover-")
        assert name.endswith(".json")
        assert corpus_filename(scenario) == name
        other = Scenario(kind="discover", topology="3x3 mesh")
        assert corpus_filename(other) != name

    def test_entry_render_is_canonical(self):
        scenario = Scenario(kind="discover", topology="4-port 2-tree")
        document = corpus_entry(scenario, "coverage", "seed entry")
        text = render_corpus_entry(document)
        assert text.endswith("\n")
        assert text == render_corpus_entry(json.loads(text))
        assert json.loads(text)["schema"] == CORPUS_SCHEMA

    def test_load_rejects_bad_schema_and_missing_scenario(self, tmp_path):
        bad_schema = tmp_path / "bad.json"
        bad_schema.write_text(json.dumps({"schema": "nope",
                                          "scenario": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_corpus_entry(bad_schema)
        no_scenario = tmp_path / "empty.json"
        no_scenario.write_text(json.dumps({"schema": CORPUS_SCHEMA}))
        with pytest.raises(ValueError, match="no scenario"):
            load_corpus_entry(no_scenario)

    def test_write_then_load_round_trips(self, tmp_path):
        scenario = Scenario(kind="discover", topology="4-port 2-tree")
        failure = FuzzFailure(index=0, scenario=scenario,
                              reason="coverage", detail="seed entry")
        (path,) = write_corpus([failure], tmp_path)
        document, loaded = load_corpus_entry(path)
        assert loaded == scenario
        assert document["reason"] == "coverage"

    def test_replay_flags_failing_entries(self, tmp_path):
        good = Scenario(kind="discover", topology="4-port 2-tree")
        bad = Scenario(kind="discover", topology="4-port 2-tree",
                       fm_options=INJECT)
        write_corpus(
            [FuzzFailure(0, good, "coverage", ""),
             FuzzFailure(1, bad, "error:TypeError", "")],
            tmp_path,
        )
        outcomes = replay_corpus(tmp_path, workers=1)
        assert len(outcomes) == 2
        by_ok = {outcome.ok for outcome in outcomes}
        assert by_ok == {True, False}
        failing = next(o for o in outcomes if not o.ok)
        assert failing.reason == "error:TypeError"
