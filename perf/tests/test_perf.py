"""Self-tests of the benchmark: ``pytest perf/tests`` (seconds).

The workloads run here are the benchmark's own classes on tiny
fabrics, sized through constructor arguments.
"""

import cProfile
import json
import re
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 0) -> workloads.Workload:
    return {
        "fig6_change": lambda: workloads.Fig6Change(seed, "3x3 mesh"),
        "discover_1k": lambda: workloads.Discover1k(seed, "fattree2-16"),
        "load_mesh16": lambda: workloads.LoadMesh16(seed, "3x3 mesh", 0.3),
        "serve_churn": lambda: workloads.ServeChurn(
            seed, "mesh9", requests=30, mutate_every=10,
            direct_cycles=3),
        "layer_probes": lambda: workloads.LayerProbes(
            seed, scale=0.01, db_topology="3x3 mesh"),
    }[name]()


class TestLayers:
    def test_every_module_has_exactly_one_layer(self):
        package = ROOT / "src" / "repro"
        modules = sorted(p.relative_to(package).as_posix()
                         for p in package.rglob("*.py"))
        assert modules
        unmapped = [m for m in modules
                    if layers.layer_of_module(m) not in layers.LAYERS]
        assert unmapped == [], f"give these modules a layer: {unmapped}"

    def test_no_module_is_mapped_twice(self):
        for module in layers._MODULES:
            parents = {str(p) for p in
                       layers.PurePosixPath(module).parents}
            assert not parents & set(layers._PACKAGES), module

    def test_unmapped_module_is_not_silently_a_layer(self):
        assert layers.layer_of_module("fabric/fast_path.py") is None
        assert layers.layer_of_module("newpkg/thing.py") is None

    def test_rollup_sums_to_profile_total(self):
        from repro.experiments.runner import (
            build_simulation,
            run_until_ready,
        )
        from repro.topology import resolve_topology
        setup = build_simulation(resolve_topology("3x3 mesh"), "parallel")
        profiler = cProfile.Profile()
        profiler.runcall(run_until_ready, setup)
        ledger = layers.LayerLedger().add(profiler.getstats())
        assert ledger.total_s > 0
        assert abs(ledger.charged_s - ledger.total_s) <= (
            0.01 * ledger.total_s)
        assert ledger.unmapped == set()
        for layer in ("sim", "fabric.port", "protocols", "manager"):
            assert ledger.self_s[layer] > 0
            assert ledger.calls[layer] > 0
        assert ledger.calls["service"] == 0


class TestNames:
    @pytest.fixture(scope="class")
    def emitted(self):
        names = {}
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace in (False, True):
                report = workloads.measure(tiny(workload), 0, trace)
                assert report["failed"] == 0, report["failures"]
                names[workload, trace] = set(report["metrics"])
        return names

    def test_declared_names_are_well_formed_and_unique(self):
        declared = [m["name"] for m in
                    BENCH["end_to_end"] + BENCH["per_layer"]]
        assert len(declared) == len(set(declared))
        for name in declared + [w["name"] for w in BENCH["workloads"]]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)

    def test_workloads_are_the_declared_five(self):
        assert set(workloads.WORKLOADS) == {
            w["name"] for w in BENCH["workloads"]}

    def test_emitted_names_equal_declared_names(self, emitted):
        declared = {m["name"] for m in
                    BENCH["end_to_end"] + BENCH["per_layer"]}
        assert set().union(*emitted.values()) == declared

    def test_every_untraced_run_has_every_end_to_end_metric(self, emitted):
        end_to_end = {m["name"] for m in BENCH["end_to_end"]}
        for (workload, trace), names in emitted.items():
            if not trace:
                assert end_to_end <= names, workload


class TestChecks:
    def test_broken_check_is_a_failed_operation_not_a_dropped_one(self):
        class WrongCount(workloads.Discover1k):
            def expected_devices(self, setup):
                return len(setup.fabric.devices) + 1

        report = workloads.measure(WrongCount(0, "fattree2-16"), 0, False)
        # Warm-up and one timed rep: two discoveries, both wrong, and
        # the second rep's identity check (which holds).
        assert report["attempted"] == 3
        assert report["failed"] == 2
        result = run.contract(
            {**report, "setup_reps_s": []}, BENCH, trace=False)
        assert result["correct"] is False
        assert result["failed"] / result["attempted"] > 0

    def test_contract_reports_every_declared_name(self):
        report = workloads.measure(tiny("discover_1k"), 0, True)
        result = run.contract(report, BENCH, trace=True)
        assert list(result["metrics"]) == [
            m["name"] for m in BENCH["per_layer"]]
        assert result["metrics"]["sim.events"]["value"] > 0
        # Not measured by this workload: present, and 0.
        assert result["metrics"]["req_p50_ms"] == {
            "value": 0, "unit": "ms"}

    def test_same_seed_same_simulation(self):
        first = workloads.measure(tiny("fig6_change", 5), 0, False)
        again = workloads.measure(tiny("fig6_change", 5), 0, False)
        other = workloads.measure(tiny("fig6_change", 6), 0, False)
        key = "sim_discovery_ms"
        assert first["metrics"][key] == again["metrics"][key]
        assert first["metrics"][key] != other["metrics"][key]


class TestVerdict:
    def test_ratio_against_bound(self):
        assert compare.verdict(1.0, 1.05, 0.07, "lower") == "within-bound"
        assert compare.verdict(1.0, 1.08, 0.07, "lower") == "worse"
        assert compare.verdict(1.0, 0.90, 0.07, "lower") == "better"
        assert compare.verdict(1.0, 0.90, 0.07, "higher") == "worse"

    def test_wide_reps_are_unresolved(self):
        noisy = [1.0, 1.2, 1.4, 1.6]
        assert compare.verdict(1.3, 1.35, 0.07, "lower",
                               noisy, noisy) == "unresolved"

    def test_steady_reps_follow_the_ratio(self):
        base, new = [1.00, 1.01, 1.02], [0.96, 0.97, 0.98]
        assert compare.verdict(1.01, 0.97, 0.07, "lower",
                               base, new) == "within-bound"

    def test_disjoint_reps_resolve_whatever_their_spread(self):
        base, new = [2.0, 2.4, 2.8], [1.0, 1.2, 1.4]
        assert compare.verdict(2.4, 1.2, 0.07, "lower",
                               base, new) == "better"
        assert compare.verdict(1.2, 2.4, 0.07, "lower",
                               new, base) == "worse"
