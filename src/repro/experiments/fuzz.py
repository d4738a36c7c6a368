"""Scenario fuzzing lab: imagine scenarios, find failures, shrink them.

The paper validates discovery on the handful of Table 1 topologies;
the differential-testing engine built across the previous PRs — a
frozen, serializable :class:`~repro.experiments.scenario.Scenario` and
ground-truth oracles (``database_matches_fabric`` and the
:class:`~repro.manager.consistency.TopologyAuditor`) — lets this
module close the loop and *generate* validation scenarios instead:

* :func:`sample_scenario` seed-deterministically samples a scenario
  per ``(seed, index)`` across topology family (Table 1 aliases and
  embedded :func:`~repro.topology.irregular.make_irregular` specs) x
  manager x algorithm x change/fault plan x link-error rates x
  timing perturbations;
* :func:`run_fuzz` fans the sampled scenarios out through the
  process-parallel executor and classifies every outcome: a raised
  exception (a timeout, say), an exhausted restart budget, a database
  that does not match the reachable ground truth, or a dirty
  consistency audit are failures;
* each failure is handed to
  :func:`~repro.experiments.shrink.shrink_scenario`, which reduces it
  to a minimal scenario still failing for the same reason;
* minimal reproducers are written as canonical JSON into a regression
  corpus (``tests/corpus/`` in this repository) that
  :func:`replay_corpus` — and a tier-1 test — replays forever after.

Everything derives from the master seed: the same ``(seed, runs)``
produce the same scenarios, the same failures, and byte-identical
corpus files regardless of ``--jobs``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..manager.timing import ALGORITHMS, ProcessingTimeModel
from ..topology.irregular import make_irregular
from .executor import run_many
from .scenario import CHANGE_KINDS, FAMILIES, KINDS, Scenario
from .shrink import DEFAULT_MAX_ATTEMPTS, shrink_scenario

PathLike = Union[str, Path]

#: Schema tag of one corpus entry file.
CORPUS_SCHEMA = "repro/fuzz-corpus/v1"

#: Table 1 aliases the sampler draws from — the small half of the
#: suite, so a 50-run budget stays interactive.
FUZZ_TOPOLOGIES = ("mesh9", "torus9", "mesh16", "fattree4-2",
                   "fattree8-2")

#: Sampled irregular-topology shape: switches, extra links, ports.
IRREGULAR_SWITCHES = (3, 8)
IRREGULAR_EXTRA_LINKS = (0, 3)
IRREGULAR_PORTS = 8

#: Sampled generator-family shapes (drawn as parseable spec names, so
#: corpus entries stay human-readable strings).
DRAGONFLY_ROUTERS = (2, 4)       # K: routers per group
DRAGONFLY_GROUPS = (2, 6)        # M: groups
DRAGONFLY_ENDPOINTS = (1, 1, 2)  # E: endpoints per router (weighted)
FATTREE2_ENDPOINTS = (8, 12, 16, 24)
FATTREE2_PORTS = (8, 12)

#: Timing-perturbation pools (the Figs. 8/9 axes).
FM_FACTORS = (0.5, 1.0, 2.0, 4.0)
DEVICE_FACTORS = (0.2, 1.0, 2.0)

#: Link-error pools for ``reliability`` scenarios.
BIT_ERROR_RATES = (1e-5, 5e-5, 1e-4)
PACKET_LOSS_RATES = (1e-4, 1e-3)
DUPLICATE_RATES = (1e-4, 1e-3)
ERROR_BURST_LENGTHS = (1.0, 2.0, 4.0)

#: Churn fault-plan pools.
CHURN_FAULTS = (2, 3, 4, 6)
CHURN_MEAN_INTERVALS = (1e-3, 2e-3, 5e-3)
VERIFY_SAMPLES = (1, 3)

#: Failover plan pools (FM-kill scenarios).
FAILOVER_FAULTS = (0, 2, 3)
FAILOVER_HEARTBEATS = (0.5e-3, 1e-3, 2e-3)
FAILOVER_MISS_THRESHOLDS = (2, 3)

#: Traffic pools for ``load`` scenarios.  Packet sizes stay well under
#: the receive-buffer credit capacity (a wire packet must fit the far
#: side's whole input buffer or ``send`` rejects it).
LOAD_LEVELS = (0.3, 0.6, 0.9)
LOAD_PACKET_BYTES = (64, 256, 512)


# -- sampling -----------------------------------------------------------------

def sample_scenario(seed: int, index: int,
                    inject: Optional[dict] = None) -> Scenario:
    """The ``index``-th scenario of the fuzzing run seeded ``seed``.

    Purely deterministic: the per-run RNG derives from integer
    arithmetic on ``(seed, index)`` (never from hashing, which
    ``PYTHONHASHSEED`` would perturb across worker processes).
    ``inject`` forces extra FM constructor options into every sampled
    scenario — the lab's hook for deliberately breaking the system
    under test to prove the find/shrink loop works.
    """
    rng = random.Random(1_000_003 * seed + index)
    kind = rng.choice(KINDS)
    family_draw = rng.random()
    if family_draw < 0.4:
        num_switches = rng.randint(*IRREGULAR_SWITCHES)
        extra_links = rng.randint(*IRREGULAR_EXTRA_LINKS)
        topology_seed = rng.randrange(1 << 16)
        from .io import spec_to_dict
        topology: Union[str, dict] = spec_to_dict(make_irregular(
            num_switches, extra_links=extra_links,
            switch_ports=IRREGULAR_PORTS, seed=topology_seed,
        ))
    elif family_draw < 0.55:
        # Generator families: small Dragonfly / two-layer fat-tree
        # specs drawn as names (resolve_topology parses them back).
        from ..topology import dragonfly_name, fat_tree2_name
        if rng.random() < 0.5:
            topology = dragonfly_name(
                rng.randint(*DRAGONFLY_ROUTERS),
                rng.randint(*DRAGONFLY_GROUPS),
                rng.choice(DRAGONFLY_ENDPOINTS),
            )
        else:
            topology = fat_tree2_name(
                rng.choice(FATTREE2_ENDPOINTS),
                switch_ports=rng.choice(FATTREE2_PORTS),
            )
    else:
        topology = rng.choice(FUZZ_TOPOLOGIES)
    kwargs: dict = {
        "kind": kind,
        "topology": topology,
        "algorithm": rng.choice(ALGORITHMS),
        # Weight toward the paper's full-rediscovery manager.
        "manager": rng.choice(("full", "full", "partial")),
        "seed": rng.randrange(1 << 16),
    }
    if kind == "change":
        kwargs["change"] = rng.choice(CHANGE_KINDS)
    if kind == "reliability":
        params = {"bit_error_rate": rng.choice(BIT_ERROR_RATES)}
        if rng.random() < 0.3:
            params["packet_loss_rate"] = rng.choice(PACKET_LOSS_RATES)
        if rng.random() < 0.3:
            params["duplicate_rate"] = rng.choice(DUPLICATE_RATES)
        if rng.random() < 0.3:
            params["error_burst_length"] = rng.choice(
                ERROR_BURST_LENGTHS
            )
        kwargs["params"] = params
    if kind == "churn":
        kwargs["faults"] = rng.choice(CHURN_FAULTS)
        kwargs["mean_interval"] = rng.choice(CHURN_MEAN_INTERVALS)
        if rng.random() < 0.25:
            kwargs["verify_sample"] = rng.choice(VERIFY_SAMPLES)
    if kind == "load":
        from ..workloads.traffic import ARRIVALS, PATTERNS, TrafficSpec
        from .load import TC_MAPPINGS
        kwargs["traffic"] = TrafficSpec(
            load=rng.choice(LOAD_LEVELS),
            packet_bytes=rng.choice(LOAD_PACKET_BYTES),
            arrival=rng.choice(ARRIVALS),
            pattern=rng.choice(PATTERNS),
        ).to_dict()
        if rng.random() < 0.5:
            # Half the draws force management onto the application VC,
            # fuzzing discovery without the strict-priority bypass.
            kwargs["params"] = {
                "tc_vc_map": list(TC_MAPPINGS["mixed"]),
            }
    if kind == "failover":
        # The takeover leans on the partial manager's repair bursts;
        # keep a full-manager tail so both repair paths stay fuzzed.
        kwargs["manager"] = rng.choice(("partial", "partial", "full"))
        kwargs["faults"] = rng.choice(FAILOVER_FAULTS)
        kwargs["mean_interval"] = rng.choice(CHURN_MEAN_INTERVALS)
        kwargs["heartbeat_interval"] = rng.choice(FAILOVER_HEARTBEATS)
        if rng.random() < 0.5:
            kwargs["miss_threshold"] = rng.choice(
                FAILOVER_MISS_THRESHOLDS
            )
        if rng.random() < 0.25:
            # The dueling-managers case: resurrect the old primary and
            # demand the ownership fencing demote it.
            kwargs["restart_primary"] = True
    if rng.random() < 0.35:
        kwargs["timing"] = ProcessingTimeModel(
            fm_factor=rng.choice(FM_FACTORS),
            device_factor=rng.choice(DEVICE_FACTORS),
        )
    if inject:
        kwargs["fm_options"] = dict(inject)
    return Scenario(**kwargs)


# -- the oracle ---------------------------------------------------------------

def classify_result(scenario: Scenario, result) -> Optional[Tuple[str, str]]:
    """``(reason, detail)`` when a *completed* run is still a failure:
    the verdict of the scenario's family (churn and failover carry the
    full oracle — abort, graph convergence, audit, fencing; every
    other kind the ground-truth database comparison)."""
    return FAMILIES[scenario.kind].verdict(result)


def evaluate_scenario(scenario: Scenario) -> Optional[Tuple[str, str]]:
    """Run one scenario in-process; ``None`` = pass, else the failure.

    This is the shrinker's evaluator: exceptions become
    ``error:<ExceptionName>`` reasons, so a shrink can preserve "this
    scenario raises TimeoutError" as faithfully as "this scenario
    converges to a wrong database".
    """
    try:
        result = scenario.run()
    except Exception as exc:
        return f"error:{type(exc).__name__}", str(exc)
    return classify_result(scenario, result)


def _classify_error(message: str) -> Tuple[str, str]:
    """Map an executor ``RunFailure.error`` string to a reason."""
    name, _, detail = message.partition(": ")
    return f"error:{name}", detail or message


# -- failures and reports -----------------------------------------------------

@dataclass
class FuzzFailure:
    """One failing sampled scenario (plus its shrunk reproducer)."""

    index: int
    scenario: Scenario
    reason: str
    detail: str
    shrunk: Optional[Scenario] = None
    shrink_attempts: int = 0
    shrink_steps: int = 0

    @property
    def minimal(self) -> Scenario:
        """The scenario to archive: shrunk when available."""
        return self.shrunk if self.shrunk is not None else self.scenario

    def describe(self) -> str:
        topology = self.minimal.topology
        name = topology["name"] if isinstance(topology, dict) else topology
        return (f"run[{self.index}] {self.minimal.kind} on {name}: "
                f"{self.reason} ({self.detail})")


@dataclass
class FuzzReport:
    """Everything one fuzzing run produced."""

    seed: int
    runs: int
    scenarios: List[Scenario]
    failures: List[FuzzFailure]
    corpus_paths: List[Path] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.runs} scenario(s), seed {self.seed}, "
            f"{len(self.failures)} failure(s) in {self.wall_time:.2f} s"
        ]
        lines += [f"  {failure.describe()}" for failure in self.failures]
        if self.corpus_paths:
            lines += [f"  corpus: {path}" for path in self.corpus_paths]
        return "\n".join(lines)


def run_fuzz(
    runs: int,
    seed: int = 0,
    workers: int = 1,
    shrink: bool = True,
    corpus_dir: Optional[PathLike] = None,
    inject: Optional[dict] = None,
    max_shrink_attempts: int = DEFAULT_MAX_ATTEMPTS,
    progress: Union[bool, None] = None,
) -> FuzzReport:
    """Sample ``runs`` scenarios, execute them, shrink every failure.

    The sweep fans out over the process-parallel executor
    (``workers``); shrinking runs serially in-process so the greedy
    search is deterministic.  With ``corpus_dir`` set, each failure's
    minimal scenario is written there as canonical JSON (stable bytes
    for a stable failure).
    """
    started = time.perf_counter()
    scenarios = [sample_scenario(seed, i, inject=inject)
                 for i in range(runs)]
    report = run_many(scenarios, workers=workers, progress=progress)
    errors: Dict[int, Tuple[str, str]] = {
        failure.index: _classify_error(failure.error)
        for failure in report.failures
    }
    failures: List[FuzzFailure] = []
    for index, scenario in enumerate(scenarios):
        if index in errors:
            reason, detail = errors[index]
        else:
            verdict = classify_result(scenario, report.results[index])
            if verdict is None:
                continue
            reason, detail = verdict
        failures.append(FuzzFailure(index=index, scenario=scenario,
                                    reason=reason, detail=detail))
    if shrink:
        for failure in failures:
            result = shrink_scenario(
                failure.scenario, failure.reason, failure.detail,
                evaluate_scenario, max_attempts=max_shrink_attempts,
            )
            failure.shrunk = result.scenario
            failure.detail = result.detail
            failure.shrink_attempts = result.attempts
            failure.shrink_steps = result.steps
    corpus_paths: List[Path] = []
    if corpus_dir is not None and failures:
        corpus_paths = write_corpus(failures, corpus_dir)
    return FuzzReport(
        seed=seed, runs=runs, scenarios=scenarios, failures=failures,
        corpus_paths=corpus_paths,
        wall_time=time.perf_counter() - started,
    )


# -- the regression corpus ----------------------------------------------------

def corpus_filename(scenario: Scenario) -> str:
    """Deterministic name for a corpus entry: kind + content digest."""
    canonical = json.dumps(scenario.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return f"{scenario.kind}-{digest}.json"


def corpus_entry(scenario: Scenario, reason: str, detail: str) -> dict:
    """The JSON document one corpus file holds."""
    return {
        "schema": CORPUS_SCHEMA,
        "reason": reason,
        "detail": detail,
        "scenario": scenario.to_dict(),
    }


def render_corpus_entry(document: dict) -> str:
    """Canonical file bytes for a corpus document (sorted, indented)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_corpus(failures: Sequence[FuzzFailure],
                 directory: PathLike) -> List[Path]:
    """Write each failure's minimal scenario into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for failure in failures:
        document = corpus_entry(failure.minimal, failure.reason,
                                failure.detail)
        path = directory / corpus_filename(failure.minimal)
        path.write_text(render_corpus_entry(document))
        paths.append(path)
    return sorted(set(paths))


def load_corpus_entry(path: PathLike) -> Tuple[dict, Scenario]:
    """Read and validate one corpus file; returns ``(document,
    scenario)``.  Malformed entries raise :class:`ValueError`."""
    path = Path(path)
    document = json.loads(path.read_text())
    if document.get("schema") != CORPUS_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {CORPUS_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    if "scenario" not in document:
        raise ValueError(f"{path}: corpus entry has no scenario")
    return document, Scenario.from_dict(document["scenario"])


def iter_corpus(directory: PathLike) -> List[Path]:
    """The corpus files under ``directory``, sorted by name."""
    return sorted(Path(directory).glob("*.json"))


@dataclass
class ReplayOutcome:
    """One corpus entry, replayed."""

    path: Path
    scenario: Scenario
    #: ``None`` when the replay passed (converged + clean audit).
    reason: Optional[str]
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.reason is None


def replay_corpus(directory: PathLike, workers: int = 1,
                  progress: Union[bool, None] = None,
                  ) -> List[ReplayOutcome]:
    """Replay every corpus entry under ``directory``.

    The checked-in corpus holds minimal reproducers of *fixed* bugs
    plus seeded coverage scenarios, so a clean tree replays every
    entry to a pass: converged, correct database, clean audit.  A
    regression flips an outcome's ``reason`` back on.
    """
    paths = iter_corpus(directory)
    entries = [load_corpus_entry(path) for path in paths]
    scenarios = [scenario for _, scenario in entries]
    report = run_many(scenarios, workers=workers, progress=progress)
    errors = {failure.index: _classify_error(failure.error)
              for failure in report.failures}
    outcomes = []
    for index, (path, scenario) in enumerate(zip(paths, scenarios)):
        if index in errors:
            reason, detail = errors[index]
        else:
            verdict = classify_result(scenario, report.results[index])
            reason, detail = verdict if verdict else (None, "")
        outcomes.append(ReplayOutcome(path=path, scenario=scenario,
                                      reason=reason, detail=detail))
    return outcomes
