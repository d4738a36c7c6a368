"""The family registry: one declaration per scenario kind, and
everything that used to be spelt out per family derived from it."""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.cli as cli
import repro.experiments.scenario as scenario_module
from repro.experiments.churn import ChurnResult
from repro.experiments.family import mean_of
from repro.experiments.fuzz import classify_result
from repro.experiments.scenario import FAMILIES, KINDS, Scenario
from repro.experiments.executor import run_sweep
from repro.experiments.sweep import plan, representative
from repro.topology import make_mesh

from .test_churn import GOLDEN_SEED0

EVERY_FAMILY = pytest.mark.parametrize("family", FAMILIES.values(),
                                       ids=list(FAMILIES))


def test_every_scenario_kind_has_a_family():
    # Same order too: fuzz.sample_scenario draws ``rng.choice(KINDS)``
    # and the corpus file names are digests of what it draws.
    assert tuple(FAMILIES) == KINDS


@EVERY_FAMILY
def test_default_sweep_is_independent_of_workers(family):
    spec = make_mesh(2, 2)
    serial = run_sweep(plan(family, spec), workers=1, progress=False)
    forked = run_sweep(plan(family, spec), workers=2, progress=False)
    assert [r.asdict() for r in serial] == [r.asdict() for r in forked]
    assert len(serial) == len(plan(family, spec))


@EVERY_FAMILY
def test_progress_label_names_the_run(family):
    scenario = plan(family, make_mesh(2, 2), seeds=(7,))[-1]
    text = scenario.describe()
    assert "2x2 mesh" in text
    assert scenario.algorithm in text
    assert "seed=7" in text


def test_change_label_names_the_change():
    scenario = Scenario(kind="change", topology="mesh9",
                        change="add_switch")
    assert "add_switch" in scenario.describe()


@EVERY_FAMILY
def test_representative_is_one_of_the_swept_scenarios(family):
    swept = plan(family, "mesh9", seeds=(3, 4))
    assert representative(family, "mesh9", seed=3) in swept


class TestCliIsDerived:
    @pytest.mark.parametrize("kind", KINDS)
    def test_trace_accepts_every_kind(self, kind):
        args = cli._build_parser().parse_args(
            ["trace", "--kind", kind, "--out", "x.json"])
        assert args.kind == kind

    def test_every_family_command_is_interruptible(self):
        assert set(FAMILIES) <= cli.INTERRUPTIBLE
        assert "table1" not in cli.INTERRUPTIBLE

    def _recorded_runs(self, monkeypatch, argv):
        """Run ``argv`` in process; every (scenario, traced?) run."""
        runs = []
        real = scenario_module.run_scenario

        def recording(scenario, tracer=None):
            runs.append((scenario, tracer is not None))
            return real(scenario, tracer=tracer)

        monkeypatch.setattr(scenario_module, "run_scenario", recording)
        assert cli.main(argv) == 0
        return runs

    @pytest.mark.parametrize("argv", (
        ["reliability", "--ber", "0", "--algorithm", "parallel"],
        ["load", "--load", "0"],
    ), ids=("reliability", "load"))
    def test_manager_flag_reaches_the_swept_scenarios(
            self, argv, monkeypatch, tmp_path, capsys):
        # Regression: these two commands resolved --manager and then
        # swept the full manager anyway (only --trace honoured it).
        runs = self._recorded_runs(monkeypatch, [
            *argv, "--topology", "mesh9", "--manager", "partial",
            "--trace", str(tmp_path / "trace.json"),
        ])
        swept = [scenario for scenario, traced in runs if not traced]
        traced = [scenario for scenario, traced in runs if traced]
        assert swept and len(traced) == 1
        assert {scenario.manager for scenario in swept} == {"partial"}
        assert traced[0] in swept

    def test_exit_code_is_the_fuzz_oracle(self, monkeypatch, capsys):
        # Regression: `repro churn` checked only converged/audit_ok and
        # exited 0 on a run the fuzz oracle classifies `aborted`.
        aborted = ChurnResult(**{**GOLDEN_SEED0, "aborted_runs": 1})
        scenario = Scenario(kind="churn", topology="mesh16")
        assert classify_result(scenario, aborted)[0] == "aborted"
        monkeypatch.setattr(
            cli, "run_sweep",
            lambda scenarios, **kwargs: [aborted] * len(scenarios))
        assert cli.main(["churn", "--algorithm", "parallel"]) == 1

    @pytest.mark.parametrize("kind,default", (
        ("load", "parallel"),
        ("reliability", "serial_packet, serial_device, parallel"),
        ("churn", "serial_packet, serial_device, parallel"),
    ))
    def test_swept_algorithm_help_states_the_real_default(
            self, kind, default, capsys):
        # Regression: `repro load --help` said "default: all three"
        # while its sweep defaults to parallel alone.
        axis = next(axis for axis in FAMILIES[kind].axes
                    if axis.name == "algorithms")
        assert ", ".join(axis.default) == default
        with pytest.raises(SystemExit):
            cli.main([kind, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"algorithm to sweep (repeatable; default: {default})" in text

    def test_list_and_topology_print_one_catalogue(self, capsys):
        assert cli.main(["list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert cli.main(["topology"]) == 0
        catalogue = capsys.readouterr().out.splitlines()
        assert catalogue[1:] == listed[1:len(catalogue)]


def test_results_render_through_dataclass_fields():
    # asdict() is dataclasses.asdict: a new result field cannot be
    # forgotten in a hand-written mapping.
    fields = [f.name for f in dataclasses.fields(ChurnResult)]
    assert list(ChurnResult(**GOLDEN_SEED0).asdict()) == fields


def test_mean_is_taken_over_the_runs_that_measured():
    # A run with nothing to measure (a failover whose kill was never
    # detected reports ``None``) neither counts nor pulls the mean to 0.
    mean = mean_of("detection_latency")
    bucket = [SimpleNamespace(detection_latency=t)
              for t in (None, 2e-3, None, 4e-3)]
    assert mean(bucket) == pytest.approx(3e-3)
    assert mean(bucket[:1]) is None
    assert mean([]) is None
