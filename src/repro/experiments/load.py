"""Load sweep: discovery and change detection under application traffic.

The paper's results were "obtained without considering application
traffic into the network", on the claim that the management packets'
higher priority makes load irrelevant (section 4.1).  This experiment
family tests the claim: it runs the paper's change-assimilation
protocol (settle, remove a switch, measure detection and rediscovery)
while a :class:`~repro.workloads.traffic.TrafficGenerator` keeps every
endpoint injecting application traffic, and compares against the idle
baseline of the *same seed* — so the victim switch, the walk order,
and every management decision are identical and the only variable is
the traffic.

The sweep crosses offered load with the TC→VC mapping:

* ``"bvc"`` — the ASI arrangement the paper assumes: application TCs
  ride VC0, the management TC rides the strict-priority bypass VC1;
* ``"mixed"`` — every TC on VC0, so management packets queue behind
  application packets (what happens on a fabric without bypass VCs).

Measured per run: initial discovery time, PI-5 change-detection
latency (fault to first accepted PI-5 event at the FM), assimilation
time, delivered application throughput, and whether the final
database still matches ground truth.  A load-0 run draws no RNG and
schedules no traffic processes, so it is bit-identical to the plain
``change`` scenario — the golden tests hold it to that.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..fabric.params import DEFAULT_PARAMS, FabricParams
from ..manager.timing import PARALLEL
from ..workloads.traffic import (
    ARRIVALS,
    PATTERNS,
    TrafficGenerator,
    TrafficSpec,
)
from .family import (
    FRACTION,
    MANAGER,
    Axis,
    Column,
    Family,
    algorithms_swept,
    all_of,
    mean_of,
)
from .runner import (
    apply_change,
    database_matches_fabric,
    prepare_change,
    run_until_ready,
)

#: The two TC→VC mappings the sweep compares.  ``bvc`` is the fabric
#: default (management bypasses application traffic on VC1); ``mixed``
#: forces every traffic class onto one VC so management contends.
TC_MAPPINGS: Dict[str, Tuple[int, ...]] = {
    "bvc": (0, 0, 0, 0, 1, 1, 1, 1),
    "mixed": (0, 0, 0, 0, 0, 0, 0, 0),
}

#: Offered loads swept by default (0 is the baseline the inflation
#: factors are computed against).
DEFAULT_LOADS = (0.0, 0.3, 0.6, 0.9)


def mapping_label(params: FabricParams) -> str:
    """Name ``params``'s TC→VC mapping (``bvc``/``mixed``/``custom``)."""
    mapping = tuple(params.tc_vc_map)
    for label, candidate in TC_MAPPINGS.items():
        if mapping == candidate:
            return label
    return "custom"


@dataclass
class LoadResult:
    """Outcome of one change-assimilation run under traffic."""

    topology: str
    family: str
    algorithm: str
    seed: int
    offered_load: float
    mapping: str
    arrival: str
    pattern: str
    change: str
    changed_device: str
    #: Initial discovery time, with the traffic already flowing.
    discovery_time: float
    #: Fault to the first accepted PI-5 event at the FM (``None`` if
    #: the change produced no PI-5 — it always should).
    detection_latency: Optional[float]
    #: Duration of the change-assimilation discovery.
    assimilation_time: float
    packets_injected: int
    packets_delivered: int
    #: Delivered application goodput over the whole run (bytes/s of
    #: payload; 0 for the idle baseline).
    delivered_bytes_per_s: float
    #: Mean source-to-sink delivery latency of application packets.
    mean_delivery_latency: Optional[float]
    database_correct: bool

    asdict = dataclasses.asdict


def run_load_experiment(scenario, tracer=None) -> LoadResult:
    """The paper's change protocol, with application traffic flowing.

    The control flow — and, critically, the RNG draw order — mirrors
    the plain ``change`` scenario exactly: the victim switch is drawn
    from the same ``random.Random(seed)`` stream before the traffic
    generator (seeded separately, also from the seed) touches any
    randomness.  With no traffic or at load 0 the run is
    event-for-event identical to ``Scenario(kind="change").run()``.
    """
    seed = scenario.seed
    traffic = scenario.traffic_spec()
    setup, change, victim = prepare_change(scenario, tracer)
    spec = setup.spec

    generator = None
    if traffic is not None and traffic.enabled:
        generator = TrafficGenerator(setup.fabric, traffic, seed=seed)
        generator.attach_sinks(setup.entities)
        generator.start()

    # PI-5 arrival times at the FM, for the detection-latency clock.
    # A listener is a pure callback: it cannot perturb the simulation.
    pi5_times: List[float] = []
    setup.fm.pi5_listeners.append(
        lambda event: pi5_times.append(setup.env.now)
    )

    # Transient period: initial discovery + event-route programming,
    # with the traffic (if any) already contending for the links.
    initial = run_until_ready(setup)

    fault_time = setup.env.now
    pi5_times.clear()
    assimilation = apply_change(setup, change, victim)
    if generator is not None:
        generator.stop()
    if tracer is not None:
        tracer.finalize(setup)

    detection = pi5_times[0] - fault_time if pi5_times else None
    traffic_stats = generator.stats() if generator is not None else {}
    delivered = traffic_stats.get("packets_delivered", 0)
    latency = None
    if delivered:
        latency = (
            traffic_stats.get("latency_ns_total", 0) / delivered / 1e9
        )
    return LoadResult(
        topology=spec.name,
        family=spec.family,
        algorithm=scenario.algorithm,
        seed=seed,
        offered_load=traffic.load if traffic is not None else 0.0,
        mapping=mapping_label(scenario.fabric_params()),
        arrival=traffic.arrival if traffic is not None else "poisson",
        pattern=traffic.pattern if traffic is not None else "uniform",
        change=change,
        changed_device=victim,
        discovery_time=initial.discovery_time,
        detection_latency=detection,
        assimilation_time=assimilation.discovery_time,
        packets_injected=traffic_stats.get("packets_injected", 0),
        packets_delivered=delivered,
        delivered_bytes_per_s=traffic_stats.get(
            "delivered_bytes_per_s", 0.0),
        mean_delivery_latency=latency,
        database_correct=database_matches_fabric(setup),
    )


def _compose(point: dict) -> dict:
    """Mapping -> the params document, load/arrival/pattern -> the
    traffic document (``None`` at load 0: the idle baseline schedules
    no traffic at all)."""
    mapping = point["mappings"]
    if mapping not in TC_MAPPINGS:
        raise ValueError(
            f"unknown TC mapping {mapping!r} "
            f"(expected one of {tuple(TC_MAPPINGS)})"
        )
    traffic = None
    if point["loads"] > 0:
        traffic = TrafficSpec(
            load=point["loads"], arrival=point["arrival"],
            pattern=point["pattern"],
        ).to_dict()
    return {
        "params": replace(
            DEFAULT_PARAMS, tc_vc_map=TC_MAPPINGS[mapping]
        ).to_dict(),
        "traffic": traffic,
    }


def _add_inflation(rows: List[dict]) -> None:
    """Each row's mean over the same (mapping, algorithm) row at load
    0; stays ``None`` when no baseline was swept."""
    baselines = {(row["mapping"], row["algorithm"]): row
                 for row in rows if row["offered_load"] == 0}
    for row in rows:
        base = baselines.get((row["mapping"], row["algorithm"]))
        for key, source in (
            ("discovery_inflation", "mean_discovery_time"),
            ("detection_inflation", "mean_detection_latency"),
        ):
            if base and row[source] is not None and base[source]:
                row[key] = row[source] / base[source]


def _sig(precision: int, suffix: str = ""):
    return lambda value: (
        "-" if value is None else f"{value:.{precision}g}{suffix}"
    )


def _label(scenario):
    parts = [f"load={(scenario.traffic or {}).get('load', 0):g}"]
    mapping = (scenario.params or {}).get("tc_vc_map")
    if mapping is not None and len(set(mapping)) == 1:
        parts.append("mapping=mixed")
    return (*parts, f"seed={scenario.seed}")


#: Always keep load 0 among the swept loads: it is the baseline the
#: inflation columns divide by.
FAMILY = Family(
    kind="load",
    run=run_load_experiment,
    help="discovery-under-traffic sweep",
    topology="4x4 mesh",
    title="Discovery under load on {topology} ({runs} runs, "
          "{arrival}/{pattern} traffic)",
    axes=(
        Axis("mappings", "--mapping", ("bvc", "mixed"), None, swept=True,
             choices=sorted(TC_MAPPINGS),
             help="TC->VC mapping to sweep: bvc = management on the "
                  "strict-priority bypass VC, mixed = everything on one "
                  "VC (repeatable; default both)"),
        Axis("loads", "--load", DEFAULT_LOADS, None, swept=True,
             type=FRACTION, metavar="FRACTION", pick=max,
             help="offered load per endpoint to sweep, in [0, 1] "
                  "(repeatable; default: %s; keep 0 in the list — it is "
                  "the inflation baseline)"
                  % ", ".join(f"{x:g}" for x in DEFAULT_LOADS)),
        algorithms_swept((PARALLEL,)),
        MANAGER,
        Axis("arrival", "--arrival", "poisson", None, choices=ARRIVALS,
             help="traffic arrival process (default poisson)"),
        Axis("pattern", "--pattern", "uniform", None, choices=PATTERNS,
             help="destination pattern (default uniform)"),
    ),
    compose=_compose,
    group_by=(Column("mapping", "mapping"),
              Column("algorithm", "algorithm"),
              Column("offered_load", "load", format="{:.0%}".format)),
    columns=(
        Column("mean_discovery_time", "mean t_disc",
               mean_of("discovery_time"), _sig(4)),
        Column("discovery_inflation", "t_disc infl", None, _sig(3, "x")),
        Column("mean_detection_latency", "mean t_detect",
               mean_of("detection_latency"), _sig(4)),
        Column("detection_inflation", "t_detect infl", None, _sig(3, "x")),
        Column("mean_delivered_bytes_per_s", "goodput B/s",
               mean_of("delivered_bytes_per_s"), _sig(4)),
        Column("all_correct", "correct", all_of("database_correct")),
    ),
    derive=_add_inflation,
    label=_label,
)
