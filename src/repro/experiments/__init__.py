"""Experiment harness: runners, sweeps, and per-figure builders."""

from .ascii_plot import render_plot
from .churn import ChurnResult, run_churn_experiment, run_until_quiescent
from .executor import (
    RunFailure,
    SweepError,
    SweepReport,
    run_many,
    run_sweep,
)
from .failover import (
    FailoverResult,
    build_failover_pair,
    run_failover_experiment,
)
from .family import Family, render, summarize
from .fuzz import (
    FuzzFailure,
    FuzzReport,
    evaluate_scenario,
    replay_corpus,
    run_fuzz,
    sample_scenario,
    write_corpus,
)
from .io import load_results, load_spec, save_results, save_spec
from .load import LoadResult, TC_MAPPINGS, run_load_experiment
from .reliability import (
    DEFAULT_BIT_ERROR_RATES,
    ReliabilityResult,
    run_reliability_experiment,
)
from .report import render_kv, render_phase_breakdown, render_series, \
    render_table
from .runner import (
    ExperimentResult,
    SimulationSetup,
    build_simulation,
    database_matches_fabric,
    run_until_discovery_count,
    run_until_ready,
)
from .scenario import FAMILIES, Scenario, run_scenario
from .shrink import ShrinkResult, shrink_candidates, shrink_scenario
from .sweep import (
    DEVICE_FACTORS,
    FM_FACTORS,
    fig4_measurements,
    plan,
    sweep_change_experiments,
    sweep_device_factor,
    sweep_family,
    sweep_fm_factor,
)

__all__ = [
    "ChurnResult",
    "DEFAULT_BIT_ERROR_RATES",
    "DEVICE_FACTORS",
    "ExperimentResult",
    "FAMILIES",
    "FM_FACTORS",
    "FailoverResult",
    "Family",
    "FuzzFailure",
    "FuzzReport",
    "LoadResult",
    "ReliabilityResult",
    "RunFailure",
    "Scenario",
    "ShrinkResult",
    "SimulationSetup",
    "SweepError",
    "SweepReport",
    "TC_MAPPINGS",
    "build_failover_pair",
    "build_simulation",
    "database_matches_fabric",
    "evaluate_scenario",
    "fig4_measurements",
    "load_results",
    "load_spec",
    "plan",
    "render",
    "render_kv",
    "render_phase_breakdown",
    "render_plot",
    "render_series",
    "render_table",
    "replay_corpus",
    "run_churn_experiment",
    "run_failover_experiment",
    "run_fuzz",
    "run_load_experiment",
    "run_many",
    "run_reliability_experiment",
    "run_scenario",
    "run_sweep",
    "run_until_discovery_count",
    "run_until_quiescent",
    "run_until_ready",
    "sample_scenario",
    "save_results",
    "save_spec",
    "shrink_candidates",
    "shrink_scenario",
    "summarize",
    "sweep_change_experiments",
    "sweep_device_factor",
    "sweep_family",
    "sweep_fm_factor",
    "write_corpus",
]
