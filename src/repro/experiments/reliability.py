"""Reliability sweep: discovery under lossy links.

The paper's evaluation assumes a perfect channel.  With the link error
model (:class:`repro.fabric.phy.LinkErrorModel`) and the retrying
transaction engine (:mod:`repro.protocols.transaction`) in place, the
simulator can answer a question the paper could not ask: **which
discovery implementation degrades most gracefully when management
packets are corrupted or lost in flight?**

One run = one full initial discovery (plus event-route programming) of
a topology at a given bit error rate, measuring the discovery time,
the recovery work (retries, timeouts, stale completions, duplicate
requests served), the channel damage (CRC drops, outright losses), and
whether the final topology database still matches the fabric.  The
sweep crosses loss rates with the three algorithms and fans out over
the process-parallel executor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

from ..fabric.params import DEFAULT_PARAMS
from .family import (
    MANAGER,
    PROBABILITY,
    Axis,
    Column,
    Family,
    algorithms_swept,
    all_of,
    mean_of,
)
from .runner import database_matches_fabric, run_until_ready

#: Bit error rates swept by default: perfect channel, then two lossy
#: points roughly at "a retry now and then" and "every few packets".
DEFAULT_BIT_ERROR_RATES = (0.0, 1e-5, 5e-5, 1e-4)

#: Retries per request used for reliability runs.  Deliberately higher
#: than the FM default (3): at the highest swept loss rates a 4-hop
#: round trip fails a few times in ten, and the experiment studies
#: degradation, not abandonment.
RELIABILITY_MAX_RETRIES = 8


@dataclass
class ReliabilityResult:
    """Outcome of one lossy-channel discovery run."""

    topology: str
    family: str
    algorithm: str
    seed: int
    bit_error_rate: float
    packet_loss_rate: float
    duplicate_rate: float
    discovery_time: float
    devices_found: int
    requests_sent: int
    retries: int
    timeouts: int
    stale_completions: int
    #: Responder-side duplicate-suppression hits (cached completions
    #: resent without re-executing the config-space access).
    duplicate_requests: int
    #: Packets dropped at receiving ports because corruption made the
    #: header-CRC/PCRC check fail.
    crc_drops: int
    #: Packets lost outright on a link (framing never detected).
    lost_packets: int
    #: Link-layer replays injected by the duplicate error mode.
    replayed_packets: int
    database_correct: bool

    asdict = dataclasses.asdict


def run_reliability_experiment(scenario, tracer=None) -> ReliabilityResult:
    """One full discovery of the scenario's topology under its link
    error model.

    The scenario seed feeds the per-link RNG streams (``error_seed``),
    so two runs of the same scenario are bit-for-bit identical
    regardless of which sweep worker executes them.
    """
    spec = scenario.spec()
    params = replace(scenario.fabric_params(), error_seed=scenario.seed)
    setup = scenario.build(
        spec, tracer, params=params,
        max_retries=scenario.get("max_retries", RELIABILITY_MAX_RETRIES),
    )
    stats = run_until_ready(setup)
    if tracer is not None:
        tracer.finalize(setup)
    # Imported here: of all the families only this one reads the
    # scrape, and ``repro.experiments`` does not import ``repro.obs``.
    from ..obs.metrics import MetricsRegistry

    totals = MetricsRegistry().scrape_setup(setup).counters
    return ReliabilityResult(
        topology=spec.name,
        family=spec.family,
        algorithm=scenario.algorithm,
        seed=scenario.seed,
        bit_error_rate=params.bit_error_rate,
        packet_loss_rate=params.packet_loss_rate,
        duplicate_rate=params.duplicate_rate,
        discovery_time=stats.discovery_time,
        devices_found=stats.devices_found,
        requests_sent=stats.requests_sent,
        retries=stats.retries,
        timeouts=stats.timeouts,
        stale_completions=stats.stale_completions,
        duplicate_requests=totals["entity.duplicate_requests"],
        crc_drops=totals["port.rx_crc_dropped"],
        lost_packets=totals["port.rx_lost"],
        replayed_packets=totals["port.tx_replays"],
        database_correct=database_matches_fabric(setup),
    )


def _label(scenario):
    rate = (scenario.params or {}).get("bit_error_rate", 0.0)
    return (f"ber={rate:g}", f"seed={scenario.seed}")


#: Rows are ordered by algorithm, then loss rate ascending, so a glance
#: down the column shows how each implementation degrades.
FAMILY = Family(
    kind="reliability",
    run=run_reliability_experiment,
    help="discovery-under-loss sweep",
    topology="3x3 mesh",
    title="Discovery under loss on {topology} ({runs} runs)",
    axes=(
        Axis("bit_error_rates", "--ber", DEFAULT_BIT_ERROR_RATES, None,
             swept=True, type=PROBABILITY, metavar="RATE", pick=max,
             help="bit error rate to sweep (repeatable; default: %s)"
                  % ", ".join(f"{r:g}" for r in DEFAULT_BIT_ERROR_RATES)),
        algorithms_swept(),
        MANAGER,
    ),
    compose=lambda point: {"params": replace(
        DEFAULT_PARAMS, bit_error_rate=point["bit_error_rates"],
    ).to_dict()},
    group_by=(Column("algorithm", "algorithm"),
              Column("bit_error_rate", "BER")),
    columns=(
        Column("mean_discovery_time", "mean t_disc",
               mean_of("discovery_time")),
        Column("mean_retries", "retries", mean_of("retries")),
        Column("mean_timeouts", "timeouts", mean_of("timeouts")),
        Column("mean_crc_drops", "CRC drops", mean_of("crc_drops")),
        Column("all_correct", "correct", all_of("database_correct")),
    ),
    label=_label,
)
