"""Chaos-soak tests: mid-discovery churn must converge deterministically.

The golden values pin the full chain — fault schedule, hold-until-busy
injection, suspect classification, bounded restart, convergence guard,
and the final audit — for one fixed seed on the paper's figure-6 mesh.
Any change to the event kernel, the walkers, or the policy that shifts
a single packet shows up here as a one-bit diff.
"""

from repro.cli import main
from repro.experiments.churn import FAMILY
from repro.experiments.family import summarize
from repro.experiments.scenario import Scenario
from repro.experiments.executor import run_sweep
from repro.experiments.sweep import plan
from repro.manager import PARALLEL
from repro.topology import make_mesh

#: Captured from the tree that introduced the churn harness; the soak
#: at seed 0 must reproduce these bit-for-bit.
GOLDEN_SEED0 = {
    "topology": "4x4 mesh",
    "family": "mesh",
    "algorithm": "parallel",
    "manager": "full",
    "seed": 0,
    "faults": 6,
    "mid_discovery_faults": 5,
    "discoveries": 3,
    "restarts": 1,
    "repairs": 0,
    "full_rediscoveries": 2,
    "partial_bursts": 0,
    "guard_probes": 6,
    "guard_mismatches": 0,
    "aborted_runs": 0,
    "time_to_converge": 0.0040966246026045705,
    "converged": True,
    "audit_ok": True,
    "audit_differences": 0,
    "devices_found": 32,
}


def run_churn(spec, **fields):
    return Scenario(kind="churn", topology=spec, **fields).run()


class TestGoldenChurn:
    def test_seed0_soak_bit_identical_to_golden(self):
        result = run_churn(
            make_mesh(4, 4), algorithm=PARALLEL, seed=0,
        )
        assert result.asdict() == GOLDEN_SEED0

    def test_rerun_reproduces_every_field(self):
        first = run_churn(
            make_mesh(4, 4), algorithm=PARALLEL, seed=1,
        )
        second = run_churn(
            make_mesh(4, 4), algorithm=PARALLEL, seed=1,
        )
        assert first == second


class TestAcceptance:
    """The ISSUE's bar: the fig-6 mesh with mid-discovery faults always
    terminates, converges within the restart budget, and audits clean."""

    def test_full_manager_converges_and_audits_clean(self):
        for seed in range(3):
            result = run_churn(
                make_mesh(4, 4), algorithm=PARALLEL, seed=seed,
            )
            assert result.mid_discovery_faults >= 1, seed
            assert result.aborted_runs == 0, seed
            assert result.converged, seed
            assert result.audit_ok, seed
            assert result.audit_differences == 0, seed

    def test_partial_manager_survives_churn(self):
        result = run_churn(
            make_mesh(4, 4), algorithm=PARALLEL, seed=2, manager="partial",
        )
        assert result.converged
        assert result.audit_ok
        assert result.aborted_runs == 0


class TestSweep:
    def test_workers_do_not_change_results(self):
        spec = make_mesh(3, 3)
        sweep = plan(FAMILY, spec, algorithms=(PARALLEL,), seeds=(0, 1))
        serial = run_sweep(sweep, workers=1, progress=False)
        forked = run_sweep(sweep, workers=2, progress=False)
        assert serial == forked
        assert [r.seed for r in serial] == [0, 1]

    def test_summary_aggregates_by_manager_and_algorithm(self):
        spec = make_mesh(3, 3)
        results = run_sweep(plan(FAMILY, spec, algorithms=(PARALLEL,),
                                 seeds=(0, 1)), progress=False)
        rows = summarize(FAMILY, results)
        assert len(rows) == 1
        row = rows[0]
        assert row["manager"] == "full"
        assert row["algorithm"] == PARALLEL
        assert row["runs"] == 2
        assert row["aborted_runs"] == 0
        assert row["audit_pass_rate"] == 1.0
        assert row["all_converged"] is True


class TestChurnCli:
    def test_churn_command_smoke(self, capsys):
        code = main(["churn", "--topology", "3x3 mesh",
                     "--algorithm", "parallel", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mid-walk" in out
        assert "audit" in out

    def test_churn_jobs_match_serial(self, capsys):
        assert main(["churn", "--topology", "3x3 mesh",
                     "--algorithm", "parallel", "--seeds", "2",
                     "--jobs", "2"]) == 0
        forked = capsys.readouterr().out
        assert main(["churn", "--topology", "3x3 mesh",
                     "--algorithm", "parallel", "--seeds", "2",
                     "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert forked == serial
