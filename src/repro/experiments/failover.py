"""Failover experiments: kill the primary FM, measure the takeover.

"If the primary FM fails, the secondary one takes over" (paper,
section 2) — this family measures *how fast* and *how safely*.  One
run: settle, churn the fabric for a while (so the standby's mirror is
genuinely exercised, not a copy of a static topology), kill the
primary's host endpoint mid-operation, and let the standby detect the
silence and promote itself (mirror install + verify/repair, see
:class:`repro.manager.failover.StandbyManager`); detection latency and
recovery time come from its
:class:`~repro.manager.failover.FailoverReport`.

Optionally the old primary is then resurrected: its neighbours'
port-up events wake it, it rediscovers, and the ownership-epoch
fencing must make it demote itself instead of split-braining the
fabric — the run records whether it did, and whether churn had cut the
old primary's switch off from the new manager (a partition: the old
primary never sees the new epoch, and that is no split brain).

Every run is seeded end-to-end (fault schedule, guard sampling), so
sweep results are bit-identical regardless of worker scheduling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Optional

from ..fabric.params import DEFAULT_PARAMS, FabricParams
from ..manager.consistency import audit_topology
from ..manager.failover import StandbyManager
from ..manager.fm import FabricManager
from ..manager.timing import PARALLEL, ProcessingTimeModel
from ..routing.paths import fabric_route
from ..topology.spec import TopologySpec
from ..workloads.faults import FaultInjector
from .churn import (
    DEFAULT_MEAN_INTERVAL,
    FAULTS,
    MEAN_INTERVAL,
    run_until_quiescent,
)
from .family import (
    ALGORITHM,
    COUNT,
    POSITIVE,
    Axis,
    Column,
    Family,
    all_of,
    mean_of,
    share_of,
)
from .runner import (
    build_simulation,
    database_matches_fabric,
    run_until_ready,
)

#: Churn faults injected before the kill (they dirty the mirror).
DEFAULT_FAULTS = 3

#: Standby heartbeat interval for failover runs.
DEFAULT_HEARTBEAT = 1e-3

#: Consecutive missed heartbeats before promotion.
DEFAULT_MISS_THRESHOLD = 3


@dataclass
class FailoverResult:
    """Outcome of one FM-kill / takeover run."""

    topology: str
    family: str
    algorithm: str
    manager: str
    seed: int
    heartbeat_interval: float
    miss_threshold: int
    #: Churn faults injected before the kill.
    faults: int
    #: Takeover path taken: "warm" (mirror install + repair), or
    #: "cold" when the mirror was unusable and the standby rediscovered.
    takeover_mode: str
    missed_heartbeats: int
    #: Seconds from the kill to the standby noticing (heartbeats);
    #: ``None`` when the standby took over before the kill, so there
    #: was no kill to detect.
    detection_latency: Optional[float]
    #: Seconds from detection to a converged topology under the new FM.
    recovery_time: float
    #: Port-state differences the verify pass repaired.
    repairs: int
    #: Mirror refreshes completed before the kill: the bootstrap clone
    #: and one per ``SYNC_EVERY`` answered heartbeats.
    mirror_syncs: int
    devices_recovered: int
    #: Database equals the reachable ground truth (graph comparison).
    converged: bool
    #: The consistency auditor found zero differences post-takeover.
    audit_ok: bool
    audit_differences: int
    #: Whether the run resurrected the old primary afterwards.
    restart_primary: bool
    #: Fencing verdict: did the resurrected old primary demote itself?
    #: (``None`` when ``restart_primary`` is off.)
    old_primary_demoted: Optional[bool] = None
    #: Churn left no up path from the promoted manager to the switch
    #: the old primary hangs off (churn never removes that switch): the
    #: standby rightly promoted without waiting for the kill, and a
    #: resurrected primary, alone in its component, never sees the new
    #: epoch, so it has nothing to demote itself for.
    partitioned: bool = False

    asdict = dataclasses.asdict


def build_failover_pair(
    spec: TopologySpec,
    algorithm: str = PARALLEL,
    heartbeat_interval: float = DEFAULT_HEARTBEAT,
    miss_threshold: int = DEFAULT_MISS_THRESHOLD,
    manager: str = "partial",
    timing: Optional[ProcessingTimeModel] = None,
    params: FabricParams = DEFAULT_PARAMS,
    tracer=None,
    fm_options: Optional[dict] = None,
):
    """Primary on the spec's FM host, standby on the far corner.

    Both managers run with ``fence_ownership`` on (the primary stamps
    epoch 1; a takeover bumps past it) and the same transaction
    policy, so a heartbeat read times out and retries like any other
    request; the standby assimilates like the primary.  Returns
    ``(setup, standby)``; the standby is built but not started.
    """
    candidates = [ep for ep in spec.endpoints if ep != (spec.fm_host or "")]
    if not candidates:
        raise ValueError(
            "failover needs a second endpoint to host the standby"
        )
    options = dict(fm_options or {})
    options.setdefault("fence_ownership", True)
    setup = build_simulation(
        spec, algorithm=algorithm, timing=timing, params=params,
        manager=manager, tracer=tracer, **options,
    )
    standby_host = sorted(candidates)[-1]
    standby_fm = FabricManager(
        setup.fabric.device(standby_host),
        setup.entities[standby_host],
        timing=setup.fm.timing, algorithm=algorithm,
        auto_start=False,
        assimilation=setup.fm.assimilation,
        **options,
    )
    route = fabric_route(setup.fabric, standby_host, setup.fm.endpoint.name)
    standby = StandbyManager(
        standby_fm, setup.fm, route,
        heartbeat_interval=heartbeat_interval,
        miss_threshold=miss_threshold,
    )
    return setup, standby


def run_failover_experiment(scenario, tracer=None) -> FailoverResult:
    """One failover run: settle, churn, kill the primary, take over.

    With ``restart_primary`` the old primary's host is resurrected
    after the takeover converges, and the result records whether the
    ownership-epoch fencing demoted it.  The scenario's
    ``faults``/``mean_interval`` are the pre-kill churn schedule.
    """
    spec = scenario.spec()
    seed = scenario.seed
    heartbeat_interval = scenario.get("heartbeat_interval",
                                      DEFAULT_HEARTBEAT)
    miss_threshold = scenario.get("miss_threshold", DEFAULT_MISS_THRESHOLD)
    faults = scenario.get("faults", DEFAULT_FAULTS)
    mean_interval = scenario.get("mean_interval", DEFAULT_MEAN_INTERVAL)
    restart_primary = bool(scenario.restart_primary)
    setup, standby = build_failover_pair(
        spec, algorithm=scenario.algorithm,
        heartbeat_interval=heartbeat_interval,
        miss_threshold=miss_threshold, manager=scenario.manager,
        timing=scenario.timing_model(), params=scenario.fabric_params(),
        tracer=tracer, fm_options=scenario.fm_options,
    )
    primary = setup.fm
    run_until_ready(setup)
    standby.start()

    # Churn shielded from amputating either manager; FM kinds enabled
    # but drawn only via the deterministic kill below.
    injector = FaultInjector(
        setup.fabric, mean_interval=mean_interval,
        protect={primary.endpoint.name, standby.fm.endpoint.name},
        seed=seed, fm=primary, during_discovery=True,
    )

    if faults > 0:
        done = injector.run(faults=faults)
        setup.env.run(until=done)
        run_until_quiescent(setup)
        # Let the standby's next mirror sync (every fifth answered
        # heartbeat) fold the churned topology into the mirror before
        # the lights go out.
        setup.env.run(until=setup.env.now + 2 * standby.sync_interval)

    churn_faults = len(injector.log)
    injector.kill_fm_now()
    # The standby's detection-latency clock starts as the primary dies.
    standby.note_primary_failure()
    report = setup.env.run(until=standby.takeover_event)

    # From here the promoted standby *is* the fabric manager.
    setup.fm = standby.fm
    run_until_quiescent(setup)

    if restart_primary:
        injector.restore_fm_now()
        # The resurrected region's port-up events reach the new FM (its
        # takeover reprogrammed the event routes) and the old primary's
        # own entity wakes it; fencing decides who survives.
        run_until_quiescent(setup)
        deadline = setup.env.now + 50e-3
        while (not primary.demoted and setup.env.now < deadline
               and setup.env.peek() != float("inf")):
            setup.env.run(until=setup.env.now + 5e-3)
        run_until_quiescent(setup)

    if tracer is not None:
        tracer.finalize(setup)
    audit = audit_topology(setup.fabric, standby.fm)
    switch, = setup.fabric.graph(active_only=False).adj[primary.endpoint.name]
    return FailoverResult(
        topology=spec.name,
        family=spec.family,
        algorithm=scenario.algorithm,
        manager=scenario.manager,
        seed=seed,
        heartbeat_interval=heartbeat_interval,
        miss_threshold=miss_threshold,
        faults=churn_faults,
        takeover_mode=report.mode,
        missed_heartbeats=report.missed_heartbeats,
        detection_latency=report.detection_latency,
        recovery_time=report.recovery_time,
        repairs=report.repairs,
        mirror_syncs=standby.mirror_syncs,
        devices_recovered=report.devices_recovered,
        converged=database_matches_fabric(setup),
        audit_ok=audit.ok,
        audit_differences=len(audit.differences),
        restart_primary=restart_primary,
        old_primary_demoted=primary.demoted if restart_primary else None,
        partitioned=switch not in setup.fabric.reachable_devices(
            standby.fm.endpoint.name),
    )


def fenced(result):
    """No split brain: a resurrected old primary demoted itself, or sat
    in another partition where the new epoch never reached it."""
    return result.partitioned or result.old_primary_demoted is not False


def failover_verdict(result):
    """Post-takeover convergence, a clean audit, and no split brain."""
    if not result.converged:
        return ("not_converged",
                "post-takeover database does not match reachable "
                "ground truth")
    if not result.audit_ok:
        return ("audit_dirty",
                f"{result.audit_differences} auditor difference(s) "
                f"after takeover")
    if not fenced(result):
        return ("split_brain",
                "resurrected old primary did not demote itself")
    return None


def _cold_fallbacks(bucket) -> int:
    return sum(1 for r in bucket if r.takeover_mode == "cold")


FAMILY = Family(
    kind="failover",
    run=run_failover_experiment,
    help="FM kill/takeover experiment",
    topology="4x4 mesh",
    title="FM failover on {topology} ({runs} runs, {faults} churn "
          "faults before each kill)",
    axes=(
        ALGORITHM,
        Axis("manager", "--manager", "partial", "manager",
             choices=("full", "partial"),
             help="FM flavour for primary and standby (default partial; "
                  "the takeover repairs via the partial manager's burst "
                  "machinery)"),
        replace(FAULTS, default=DEFAULT_FAULTS,
                help="churn faults injected before the kill "
                     f"(default {DEFAULT_FAULTS})"),
        replace(MEAN_INTERVAL,
                help="mean seconds between churn faults (default "
                     f"{DEFAULT_MEAN_INTERVAL:g})"),
        Axis("heartbeat_interval", "--heartbeat", DEFAULT_HEARTBEAT,
             "heartbeat_interval", type=POSITIVE, metavar="SECONDS",
             help="standby heartbeat probe interval (default "
                  f"{DEFAULT_HEARTBEAT:g})"),
        Axis("miss_threshold", "--miss-threshold", DEFAULT_MISS_THRESHOLD,
             "miss_threshold", type=COUNT,
             help="consecutive missed heartbeats before takeover "
                  f"(default {DEFAULT_MISS_THRESHOLD})"),
        Axis("restart_primary", "--restart-primary", False,
             "restart_primary",
             help="resurrect the old primary after takeover and verify "
                  "the ownership-epoch fence demotes it"),
    ),
    group_by=(Column("manager", "manager"),),
    columns=(
        Column("mean_detection_latency", "t_detect",
               mean_of("detection_latency")),
        Column("mean_recovery_time", "t_recover",
               mean_of("recovery_time")),
        Column("mean_repairs", "repairs", mean_of("repairs")),
        Column("cold_fallbacks", "cold_fb", _cold_fallbacks),
        Column("audit_pass_rate", "audit", share_of("audit_ok")),
        Column("all_converged", "converged", all_of("converged")),
        Column("all_fenced", "fenced", lambda b: all(map(fenced, b))),
    ),
    verdict=failover_verdict,
    label=lambda s: (f"seed={s.seed}",),
)
