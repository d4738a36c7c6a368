"""Churn soak: discovery convergence under mid-walk topology churn.

The paper's change-assimilation protocol injects exactly one change,
and only after the fabric has settled.  A production fabric misbehaves
*while* the FM is walking it: a switch dies between its general-info
read and its port reads, a link flaps under a route the walker already
recorded, a second change lands before the rediscovery for the first
one finished.  This experiment drives that regime and measures whether
the hardened FM (bounded restart/repair policy, convergence guard,
consistency auditor — see :mod:`repro.manager.consistency`) always
terminates and actually converges to the true topology.

One run = transient period, then a seeded burst of faults preferring
mid-discovery instants (:class:`repro.workloads.faults.FaultInjector`
in ``during_discovery`` mode), then run-to-quiescence and a full
:class:`~repro.manager.consistency.TopologyAuditor` audit.  The sweep
crosses algorithms x seeds and fans out over the process-parallel
executor; every run derives all randomness from its own seed, so the
results are bit-identical regardless of worker scheduling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..manager.consistency import audit_topology
from ..workloads.faults import FaultInjector
from .family import (
    MANAGER,
    NATURAL,
    POSITIVE,
    Axis,
    Column,
    Family,
    algorithms_swept,
    all_of,
    mean_of,
    share_of,
    total_of,
)
from .runner import (
    MAX_SIM_TIME,
    SimulationSetup,
    database_matches_fabric,
    run_until_ready,
)

#: Faults injected per soak run by default.
DEFAULT_FAULTS = 6

#: Mean seconds between faults.  Deliberately of the same order as one
#: discovery on the small meshes (~2-3 ms), so consecutive faults
#: routinely overlap a running walk even before the injector's
#: mid-discovery hold kicks in.
DEFAULT_MEAN_INTERVAL = 2e-3

#: Convergence-guard sample size used for churn runs (the guard is the
#: feature under test here; the paper-faithful experiments keep it 0).
DEFAULT_VERIFY_SAMPLE = 3


#: Simulated seconds :func:`run_until_quiescent` runs between looks at
#: the FM, and how long an idle FM must stay idle to count as quiescent
#: (an idle-looking FM may still have a PI-5 event packet in flight
#: toward it).
QUIESCENCE_POLL = 5e-3
QUIESCENCE_SETTLE = 20e-3


def run_until_quiescent(setup: SimulationSetup,
                        horizon: float = MAX_SIM_TIME):
    """Run until the FM is idle with its event routes programmed.

    Unlike :func:`~repro.experiments.runner.run_until_ready` this keeps
    going through *chains* of automatic restarts/repairs: it returns
    only when no discovery or assimilation burst is in flight and the
    current ``ready_event`` has triggered — and that state has held
    for :data:`QUIESCENCE_SETTLE` seconds or the event heap has
    drained entirely.  A demoted FM counts as soon as it is idle, its
    first walk finished or not.  The bounded restart policy
    guarantees that state is reached; a run that exhausted the budget
    carries ``aborted`` in its stats.

    Returns the stats of the last completed discovery (``None`` for an
    FM demoted before any completed).
    """
    env, fm = setup.env, setup.fm
    deadline = env.now + horizon
    quiet_since = None
    while True:
        ready = fm.ready_event is not None and fm.ready_event.triggered
        if not fm.busy and ready and (fm.history or fm.demoted):
            if env.peek() == float("inf"):
                break
            if quiet_since is None:
                quiet_since = env.now
            elif env.now - quiet_since >= QUIESCENCE_SETTLE:
                break
        else:
            quiet_since = None
        if env.now >= deadline:
            raise TimeoutError(
                f"fabric not quiescent within {horizon} s of simulated "
                f"time"
            )
        env.run(until=min(env.now + QUIESCENCE_POLL, deadline))
    return fm.history[-1] if fm.history else None


@dataclass
class ChurnResult:
    """Outcome of one churn soak run."""

    topology: str
    family: str
    algorithm: str
    manager: str
    seed: int
    #: Faults injected / how many landed while the FM was mid-walk.
    faults: int
    mid_discovery_faults: int
    #: Completed discoveries (initial + assimilations + restarts).
    discoveries: int
    #: Automatic full restarts taken by the bounded policy.
    restarts: int
    #: Targeted subtree repairs that avoided a full rediscovery.
    repairs: int
    #: Non-initial full walks (change assimilations + restarts).
    full_rediscoveries: int
    #: Partial-assimilation bursts (0 under the ``"full"`` manager).
    partial_bursts: int
    #: Convergence-guard re-reads issued / mismatches they caught.
    guard_probes: int
    guard_mismatches: int
    #: Runs that exhausted the restart budget (terminated, not hung).
    aborted_runs: int
    #: Seconds from the last injected fault to the end of the last
    #: discovery (0 if the FM was already converged when it landed).
    time_to_converge: float
    #: Database equals the reachable ground truth (graph comparison).
    converged: bool
    #: The consistency auditor found zero differences.
    audit_ok: bool
    audit_differences: int
    devices_found: int

    asdict = dataclasses.asdict


def run_churn_experiment(scenario, tracer=None) -> ChurnResult:
    """One churn soak: settle, inject the scenario's mid-walk faults,
    run to quiescence, audit.

    The scenario seed drives both the fault schedule and the
    convergence-guard sampling, so two runs of the same scenario are
    bit-for-bit identical regardless of which sweep worker executes
    them.
    """
    spec = scenario.spec()
    seed = scenario.seed
    mean_interval = scenario.get("mean_interval", DEFAULT_MEAN_INTERVAL)
    setup = scenario.build(
        spec, tracer,
        verify_sample=scenario.get("verify_sample", DEFAULT_VERIFY_SAMPLE),
        verify_seed=seed,
    )
    run_until_ready(setup)

    # Protecting the FM's endpoint also shields its attachment
    # switches and their links (see FaultInjector), so churn can never
    # amputate the manager itself.
    injector = FaultInjector(
        setup.fabric, mean_interval=mean_interval,
        protect={setup.fm.endpoint.name}, seed=seed,
        fm=setup.fm, during_discovery=True,
    )
    done = injector.run(faults=scenario.get("faults", DEFAULT_FAULTS))
    setup.env.run(until=done)
    run_until_quiescent(setup)

    fm = setup.fm
    if tracer is not None:
        tracer.finalize(setup)
    last_fault = injector.log[-1].time if injector.log else 0.0
    time_to_converge = max(0.0, fm.history[-1].finished_at - last_fault)
    report = audit_topology(setup.fabric, fm)
    return ChurnResult(
        topology=spec.name,
        family=spec.family,
        algorithm=scenario.algorithm,
        manager=scenario.manager,
        seed=seed,
        faults=len(injector.log),
        mid_discovery_faults=injector.mid_discovery_faults,
        discoveries=len(fm.history),
        restarts=fm.counters["discovery_restarts"],
        repairs=fm.counters["subtree_repairs"],
        full_rediscoveries=sum(
            1 for s in fm.history[1:] if s.algorithm != "partial"
        ),
        partial_bursts=sum(
            1 for s in fm.history if s.algorithm == "partial"
        ),
        guard_probes=fm.counters["guard_probes"],
        guard_mismatches=fm.counters["guard_mismatches"],
        aborted_runs=sum(1 for s in fm.history if s.aborted),
        time_to_converge=time_to_converge,
        converged=database_matches_fabric(setup),
        audit_ok=report.ok,
        audit_differences=len(report.differences),
        devices_found=len(fm.database),
    )


def churn_verdict(result):
    """The full oracle: bounded-restart abort, graph convergence, and
    the consistency audit."""
    if result.aborted_runs:
        return ("aborted",
                f"{result.aborted_runs} run(s) exhausted the "
                f"restart budget")
    if not result.converged:
        return ("not_converged",
                "database does not match reachable ground truth")
    if not result.audit_ok:
        return ("audit_dirty",
                f"{result.audit_differences} auditor difference(s)")
    return None


FAULTS = Axis("faults", "--faults", DEFAULT_FAULTS, "faults", type=NATURAL,
              help=f"faults injected per run (default {DEFAULT_FAULTS})")
MEAN_INTERVAL = Axis(
    "mean_interval", "--mean-interval", DEFAULT_MEAN_INTERVAL,
    "mean_interval", type=POSITIVE, metavar="SECONDS",
    help=f"mean seconds between faults (default {DEFAULT_MEAN_INTERVAL:g})",
)

FAMILY = Family(
    kind="churn",
    run=run_churn_experiment,
    help="mid-discovery churn soak",
    topology="4x4 mesh",
    title="Mid-discovery churn soak on {topology} "
          "({runs} runs, {faults} faults each)",
    axes=(algorithms_swept(), MANAGER, FAULTS, MEAN_INTERVAL),
    group_by=(Column("manager", "manager"),
              Column("algorithm", "algorithm")),
    columns=(
        Column("mean_faults", None, mean_of("faults")),
        Column("mean_mid_discovery", "mid-walk",
               mean_of("mid_discovery_faults")),
        Column("mean_restarts", "restarts", mean_of("restarts")),
        Column("mean_repairs", "repairs", mean_of("repairs")),
        Column("mean_time_to_converge", "t_converge",
               mean_of("time_to_converge")),
        Column("aborted_runs", "aborted", total_of("aborted_runs")),
        Column("audit_pass_rate", "audit", share_of("audit_ok")),
        Column("all_converged", "converged", all_of("converged")),
    ),
    verdict=churn_verdict,
    label=lambda s: (f"manager={s.manager}", f"seed={s.seed}"),
)
