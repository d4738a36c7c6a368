"""Tests for the discovery-under-load experiment family."""

import pytest

from repro.cli import main
from repro.experiments.family import render, summarize
from repro.experiments.load import (
    DEFAULT_LOADS,
    FAMILY,
    TC_MAPPINGS,
    LoadResult,
    mapping_label,
)
from repro.experiments.scenario import Scenario
from repro.experiments.executor import run_sweep
from repro.experiments.sweep import plan
from repro.fabric.params import DEFAULT_PARAMS
from repro.manager import PARALLEL, SERIAL_PACKET
from repro.topology import make_mesh
from repro.workloads.traffic import TrafficSpec


def run_load(spec, **fields):
    return Scenario(kind="load", topology=spec, **fields).run()


class TestMappingLabel:
    def test_default_params_are_bvc(self):
        assert mapping_label(DEFAULT_PARAMS) == "bvc"

    def test_known_and_custom(self):
        from dataclasses import replace
        assert mapping_label(
            replace(DEFAULT_PARAMS, tc_vc_map=TC_MAPPINGS["mixed"])
        ) == "mixed"
        assert mapping_label(
            replace(DEFAULT_PARAMS, tc_vc_map=(0, 1, 0, 1, 0, 1, 0, 1))
        ) == "custom"


class TestRunLoadExperiment:
    def test_loaded_run_measures_everything(self):
        result = run_load(
            make_mesh(3, 3),
            traffic=TrafficSpec(load=0.6, packet_bytes=256),
            seed=1,
        )
        assert result.offered_load == 0.6
        assert result.mapping == "bvc"
        assert result.change == "remove_switch"
        assert result.discovery_time > 0
        assert result.detection_latency is not None
        assert result.detection_latency > 0
        assert result.assimilation_time > 0
        assert result.packets_injected > 0
        assert result.packets_delivered > 0
        assert result.delivered_bytes_per_s > 0
        assert result.mean_delivery_latency > 0
        assert result.database_correct

    def test_idle_run_reports_no_traffic(self):
        result = run_load(make_mesh(2, 2), seed=0)
        assert result.offered_load == 0.0
        assert result.packets_injected == 0
        assert result.delivered_bytes_per_s == 0.0
        assert result.mean_delivery_latency is None
        assert result.database_correct

    def test_asdict_is_json_shaped(self):
        import json
        result = run_load(make_mesh(2, 2), seed=0)
        doc = json.loads(json.dumps(result.asdict()))
        assert doc["mapping"] == "bvc"
        assert doc["changed_device"] == result.changed_device


class TestSweepLoad:
    def test_sweep_shape_and_order(self):
        results = run_sweep(plan(
            FAMILY, make_mesh(3, 3), loads=(0.0, 0.6),
            mappings=("bvc", "mixed"),
        ), workers=2)
        assert len(results) == 4
        # Submission order: mapping-major, then load.
        assert [(r.mapping, r.offered_load) for r in results] == [
            ("bvc", 0.0), ("bvc", 0.6), ("mixed", 0.0), ("mixed", 0.6),
        ]
        assert all(r.database_correct for r in results)
        # Same seed => same victim everywhere: only traffic varies.
        assert len({r.changed_device for r in results}) == 1

    def test_parallel_matches_serial(self):
        sweep = plan(FAMILY, make_mesh(2, 2), loads=(0.0, 0.5),
                     mappings=("bvc",))
        serial = run_sweep(sweep, workers=1)
        parallel = run_sweep(sweep, workers=2)
        assert [r.asdict() for r in serial] == \
            [r.asdict() for r in parallel]

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="unknown TC mapping"):
            run_sweep(plan(FAMILY, make_mesh(2, 2), mappings=("warp",)))


class TestSummarizeLoad:
    @staticmethod
    def _result(mapping, load, t_disc, t_detect):
        return LoadResult(
            topology="t", family="mesh", algorithm=PARALLEL, seed=0,
            offered_load=load, mapping=mapping, arrival="poisson",
            pattern="uniform", change="remove_switch",
            changed_device="sw", discovery_time=t_disc,
            detection_latency=t_detect, assimilation_time=1e-3,
            packets_injected=0, packets_delivered=0,
            delivered_bytes_per_s=0.0, mean_delivery_latency=None,
            database_correct=True,
        )

    def test_inflation_against_idle_baseline(self):
        rows = summarize(FAMILY, [
            self._result("bvc", 0.0, 2e-3, 1e-5),
            self._result("bvc", 0.9, 3e-3, 2e-5),
        ])
        assert len(rows) == 2
        loaded = [r for r in rows if r["offered_load"] == 0.9][0]
        assert loaded["discovery_inflation"] == pytest.approx(1.5)
        assert loaded["detection_inflation"] == pytest.approx(2.0)
        idle = [r for r in rows if r["offered_load"] == 0.0][0]
        assert idle["discovery_inflation"] == pytest.approx(1.0)

    def test_no_baseline_means_no_inflation(self):
        rows = summarize(FAMILY, [self._result("mixed", 0.9, 3e-3, 2e-5)])
        assert rows[0]["discovery_inflation"] is None
        assert rows[0]["detection_inflation"] is None

    def test_buckets_are_per_mapping(self):
        rows = summarize(FAMILY, [
            self._result("bvc", 0.0, 2e-3, 1e-5),
            self._result("mixed", 0.0, 4e-3, 2e-5),
            self._result("mixed", 0.9, 8e-3, 6e-5),
        ])
        mixed = [r for r in rows
                 if r["mapping"] == "mixed" and r["offered_load"] == 0.9]
        assert mixed[0]["discovery_inflation"] == pytest.approx(2.0)
        assert mixed[0]["detection_inflation"] == pytest.approx(3.0)

    def test_render_table(self):
        rows = summarize(FAMILY, [
            self._result("bvc", 0.0, 2e-3, 1e-5),
            self._result("bvc", 0.9, 3e-3, 2e-5),
        ])
        table = render(FAMILY, rows, title="load sweep")
        assert "load sweep" in table
        assert "t_detect infl" in table
        assert "90%" in table
        assert "1.5x" in table


class TestLoadCli:
    def test_load_sweep_exits_zero(self, capsys):
        code = main(["load", "--topology", "3x3 mesh",
                     "--load", "0", "--load", "0.6", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bvc" in out
        assert "mixed" in out
        assert "60%" in out

    def test_single_mapping_and_algorithm(self, capsys):
        code = main(["load", "--topology", "mesh9",
                     "--load", "0", "--load", "0.5",
                     "--mapping", "bvc",
                     "--algorithm", SERIAL_PACKET])
        assert code == 0
        out = capsys.readouterr().out
        assert "serial_packet" in out
        assert "mixed" not in out

    def test_default_loads_are_documented(self):
        assert 0.0 in DEFAULT_LOADS
