"""The public surface did not move when the packages became tables.

Each re-exporting package declares one ``name -> submodule`` table
(``repro._surface``) in place of its import list.  What a caller
sees must be what it saw before: the same names, bound to the same
objects, importable the same ways — only later.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: ``sorted(__all__)`` of every package with a table, at the commit
#: before the tables (PR 22), less the partial-assimilation manager class,
#: ``PathDistributor`` and ``DistributionStats`` (deleted since: partial
#: assimilation is ``FabricManager(assimilation="partial")``) and the
#: experiments' file helpers ``load_results`` / ``load_spec`` /
#: ``save_results`` / ``save_spec`` (deleted since: no user path wrote
#: or read a file through them).
SURFACE_AT_PARENT = {
    "repro": [
        "ALGORITHMS", "CollaborativeDiscovery", "DiscoveryStats",
        "Election", "Environment", "ExperimentResult", "Fabric",
        "FabricManager", "FabricParams", "FaultInjector",
        "ManagementEntity", "PARALLEL", "PacketTracer",
        "ProcessingTimeModel", "RunFailure", "SERIAL_DEVICE",
        "SERIAL_PACKET", "Scenario", "StandbyManager", "SweepError",
        "SweepReport", "TABLE1_NAMES", "TopologySpec", "TrafficGenerator",
        "TrafficSpec", "build_simulation", "database_matches_fabric",
        "make_fattree", "make_irregular", "make_mesh", "make_torus",
        "run_many", "run_sweep", "run_until_discovery_count",
        "run_until_ready", "table1_suite", "table1_topology",
    ],
    "repro.experiments": [
        "ChurnResult", "DEFAULT_BIT_ERROR_RATES", "DEVICE_FACTORS",
        "ExperimentResult", "FAMILIES", "FM_FACTORS", "FailoverResult",
        "Family", "FuzzFailure", "FuzzReport", "LoadResult",
        "ReliabilityResult", "RunFailure", "Scenario", "ShrinkResult",
        "SimulationSetup", "SweepError", "SweepReport", "TC_MAPPINGS",
        "build_failover_pair", "build_simulation",
        "database_matches_fabric", "evaluate_scenario",
        "fig4_measurements", "plan",
        "render", "render_kv", "render_phase_breakdown", "render_plot",
        "render_series", "render_table", "replay_corpus",
        "run_churn_experiment", "run_failover_experiment", "run_fuzz",
        "run_load_experiment", "run_many", "run_reliability_experiment",
        "run_scenario", "run_sweep", "run_until_discovery_count",
        "run_until_quiescent", "run_until_ready", "sample_scenario",
        "shrink_candidates",
        "shrink_scenario", "summarize", "sweep_change_experiments",
        "sweep_device_factor", "sweep_family", "sweep_fm_factor",
        "write_corpus",
    ],
    "repro.manager": [
        "ALGORITHMS", "ALGORITHM_CLASSES", "Candidacy",
        "ClaimingParallelDiscovery", "CollaborativeDiscovery",
        "CollaborativeStats", "ConsistencyReport", "DatabaseError",
        "DeviceRecord", "Difference", "DiscoveryAborted",
        "DiscoveryStats", "Election",
        "ElectionAgent", "ElectionResult", "FabricManager",
        "FailoverReport", "PARALLEL", "ParallelDiscovery",
        "PortRecord",
        "ProcessingTimeModel", "SERIAL_DEVICE", "SERIAL_PACKET",
        "SerialDeviceDiscovery", "SerialPacketDiscovery",
        "StandbyManager", "TopologyAuditor", "TopologyDatabase",
        "audit_topology", "make_algorithm",
    ],
    "repro.workloads": [
        "ARRIVALS", "FaultEvent", "FaultInjector", "PATTERNS",
        "TrafficGenerator", "TrafficSpec",
    ],
    "repro.obs": [
        "Histogram", "Instant", "MetricsRegistry", "Span", "SpanTracer",
        "TraceSession", "chrome_trace_document",
        "discovery_phase_breakdown", "discovery_spans",
        "dump_chrome_trace", "validate_chrome_trace",
        "write_chrome_trace", "write_jsonl",
    ],
    "repro.analysis": ["PipelineModel", "expected_packets"],
    "repro.service": [
        "ApiError", "DriverStopped", "EventTap", "FabricService", "SCHEMA",
        "ServiceClient", "ServiceError", "ServiceHandle",
        "SimulationDriver", "start_service",
    ],
}

EVERY_PACKAGE = pytest.mark.parametrize("package", SURFACE_AT_PARENT)


def table_of(package: str) -> dict:
    """The table literal in the package's ``__init__.py``, read from
    the source so that the test does not resolve names the way the
    package does."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    tables = [node.args[1] for node in ast.walk(ast.parse(init.read_text()))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_surface"]
    assert len(tables) == 1, f"{package} has {len(tables)} tables"
    return ast.literal_eval(tables[0])


def in_fresh_interpreter(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout


@EVERY_PACKAGE
def test_all_is_the_list_at_the_parent_commit(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == SURFACE_AT_PARENT[package]
    assert set(module.__all__) <= set(dir(module))
    assert sorted(table_of(package)) == SURFACE_AT_PARENT[package]


@EVERY_PACKAGE
def test_each_name_is_the_object_its_submodule_defines(package):
    module = importlib.import_module(package)
    for name, submodule in table_of(package).items():
        concrete = importlib.import_module(f"{package}.{submodule}")
        value = getattr(module, name)
        assert value is getattr(concrete, name), name
        assert vars(module)[name] is value, f"{name} is not cached"
        # The table names the module that defines the object, not one
        # that happens to import it (and would load more).
        defined_in = getattr(value, "__module__", None)
        if isinstance(defined_in, str) and callable(value):
            assert defined_in == concrete.__name__, name


@EVERY_PACKAGE
def test_an_unknown_attribute_names_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_submodules_are_still_importable_from_their_package():
    """``from package import submodule`` falls through the table to the
    import system."""
    from repro.experiments import churn
    from repro.manager import discovery
    assert churn.__name__ == "repro.experiments.churn"
    assert discovery.__name__ == "repro.manager.discovery"


@EVERY_PACKAGE
def test_star_import_binds_every_name(package):
    names = in_fresh_interpreter(
        f"from {package} import *; print(' '.join(sorted(dir())))").split()
    assert set(SURFACE_AT_PARENT[package]) <= set(names)


def test_the_readme_quick_start_runs_verbatim():
    blocks = re.findall(r"```python\n(.*?)```",
                        (REPO / "README.md").read_text(), re.S)
    out = in_fresh_interpreter(blocks[0] + blocks[1]
                               + "print(rediscovery.devices_found)")
    devices, removed = out.splitlines()
    assert devices.startswith("18 devices in ")
    assert removed == "16"  # the switch and the endpoint behind it


def test_a_spawned_sweep_of_two_kinds_answers_in_job_order(monkeypatch):
    """A spawned worker starts from a fresh import: it resolves the
    family of each job it is handed, and nothing else."""
    import repro.experiments.executor as executor
    from repro import Scenario, run_many
    monkeypatch.setattr(executor, "_START_METHODS", ("spawn",))
    jobs = [Scenario(kind="reliability", topology="3x3 mesh", seed=1),
            Scenario(kind="change", topology="3x3 mesh", seed=2),
            Scenario(kind="load", topology="3x3 mesh", seed=3)]
    report = run_many(jobs, workers=2)
    assert not report.failures
    assert [type(result).__name__ for result in report.results] == [
        "ReliabilityResult", "ExperimentResult", "LoadResult"]
    assert [result.seed for result in report.results] == [1, 2, 3]
