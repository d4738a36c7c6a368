"""Auto-shrink: reduce a failing Scenario to a minimal reproducer.

A fuzzer-found failure is only useful once a human can stare at it,
and nobody can stare at "churn, irregular-8+3, perturbed timing,
verify_sample=3, six faults".  :func:`shrink_scenario` greedily
simplifies a failing :class:`~repro.experiments.scenario.Scenario`
while an ``evaluate`` callable keeps reporting the *same* failure
reason: drop the fault plan, zero the link-error rates, strip the
timing/params/FM-option perturbations, and regenerate embedded
irregular topologies smaller (their specs record ``(num_switches,
extra_links, seed)`` in the name, so any variant is rebuildable).

The shrinker is deliberately deterministic — candidates are tried in
a fixed order, most aggressive first — so the same failure always
shrinks to the same minimal scenario, and the regression corpus the
fuzzer writes is byte-stable across runs and worker counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Tuple

from ..topology.irregular import make_irregular, parse_irregular_name
from .scenario import FAMILIES, Scenario

#: An ``evaluate`` callable: run (or statically judge) a scenario and
#: return ``None`` when it passes or ``(reason, detail)`` when it
#: fails.  The fuzzing lab's :func:`repro.experiments.fuzz.
#: evaluate_scenario` is the canonical implementation.
Evaluator = Callable[[Scenario], Optional[Tuple[str, str]]]

#: Default cap on candidate evaluations per shrink.
DEFAULT_MAX_ATTEMPTS = 80


@dataclass
class ShrinkResult:
    """Outcome of one shrink: the minimal scenario still failing with
    the original reason, plus bookkeeping."""

    scenario: Scenario
    reason: str
    detail: str
    #: Candidate evaluations spent (accepted + rejected).
    attempts: int
    #: Greedy passes over the candidate list.
    rounds: int
    #: Accepted simplification steps.
    steps: int


def _canonical(scenario: Scenario) -> str:
    return json.dumps(scenario.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def _irregular_candidates(topology: dict) -> Iterator[dict]:
    """Smaller regenerations of an embedded irregular topology."""
    recorded = parse_irregular_name(topology.get("name", ""))
    if recorded is None:
        return
    num_switches, extra_links, seed = recorded
    switches = topology.get("switches") or []
    ports = switches[0][1] if switches else 16
    ladder = [
        (2, 0),
        (max(2, num_switches // 2), 0),
        (num_switches - 1, min(extra_links, num_switches - 2)),
        (num_switches, 0),
        (num_switches, extra_links - 1),
    ]
    seen = set()
    for n, e in ladder:
        if n < 1 or e < 0 or (n, e) == (num_switches, extra_links):
            continue
        if n > num_switches or e > extra_links:
            continue
        if (n, e) in seen:
            continue
        seen.add((n, e))
        from .io import spec_to_dict
        yield spec_to_dict(make_irregular(
            n, extra_links=e, switch_ports=ports, seed=seed,
        ))


def _smaller_table1(name: str) -> List[str]:
    """Table 1 topologies strictly smaller than ``name``, ascending."""
    from ..topology.table1 import TABLE1_NAMES, table1_topology
    try:
        size = table1_topology(name).total_devices
    except ValueError:
        return []
    smaller = [
        other for other in TABLE1_NAMES
        if table1_topology(other).total_devices < size
    ]
    smaller.sort(key=lambda other: table1_topology(other).total_devices)
    return smaller


def shrink_candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Simplified variants of ``scenario``, most aggressive first.

    Every yielded candidate is a *valid* scenario (construction errors
    are swallowed); whether it still reproduces the failure is for the
    caller's ``evaluate`` to decide.
    """

    def attempt(**changes) -> Optional[Scenario]:
        try:
            return replace(scenario, **changes)
        except (ValueError, TypeError):
            return None

    candidates: List[Optional[Scenario]] = []

    # 1. Shrink the topology (the biggest reduction in run cost).
    if isinstance(scenario.topology, dict):
        for document in _irregular_candidates(scenario.topology):
            candidates.append(attempt(topology=document))
    else:
        for name in _smaller_table1(scenario.topology):
            candidates.append(attempt(topology=name))

    # 2. Drop faults from the plan of a family that has one (churn, or
    #    the churn before a failover's kill).
    plan = next((axis for axis in FAMILIES[scenario.kind].axes
                 if axis.field == "faults"), None)
    if plan is not None:
        effective = (plan.default if scenario.faults is None
                     else scenario.faults)
        if scenario.kind == "failover" and effective >= 1:
            # A kill with no preceding churn at all is the simplest
            # failover there is.
            candidates.append(attempt(faults=0))
        for fewer in (1, effective // 2, effective - 1):
            if 1 <= fewer < effective:
                candidates.append(attempt(faults=fewer))

    # 3. Calm the channel: drop the params document, zero the error
    #    rates, then halve each nonzero rate.
    if scenario.params is not None:
        candidates.append(attempt(params=None))
        rates = ("bit_error_rate", "packet_loss_rate", "duplicate_rate")
        lossy = [r for r in rates if scenario.params.get(r, 0.0) > 0.0]
        if lossy:
            calmed = dict(scenario.params)
            for rate in lossy:
                calmed[rate] = 0.0
            candidates.append(attempt(params=calmed))
            for rate in lossy:
                halved = dict(scenario.params)
                halved[rate] = scenario.params[rate] / 2.0
                candidates.append(attempt(params=halved))

    # 4. Quiet the traffic plane: first kill the workload outright
    #    (a load failure that survives with no traffic is a plain
    #    change bug), then calm it — lighter load, steady arrivals,
    #    uniform destinations.
    if scenario.traffic is not None:
        candidates.append(attempt(traffic=None))
        calmer = dict(scenario.traffic)
        if calmer.get("load", 0) > 0.3:
            candidates.append(attempt(
                traffic={**calmer, "load": 0.3}))
        if calmer.get("arrival", "poisson") != "constant":
            candidates.append(attempt(
                traffic={**calmer, "arrival": "constant"}))
        if calmer.get("pattern", "uniform") != "uniform":
            candidates.append(attempt(
                traffic={**calmer, "pattern": "uniform"}))

    # 5. Strip the perturbations and optional knobs.
    if scenario.timing is not None:
        candidates.append(attempt(timing=None))
    if scenario.fm_options is not None:
        candidates.append(attempt(fm_options=None))
        if len(scenario.fm_options) > 1:
            for key in sorted(scenario.fm_options):
                trimmed = {k: v for k, v in scenario.fm_options.items()
                           if k != key}
                candidates.append(attempt(fm_options=trimmed))
    for knob in ("max_retries", "mean_interval", "verify_sample",
                 "heartbeat_interval", "miss_threshold",
                 "restart_primary"):
        if getattr(scenario, knob) is not None:
            candidates.append(attempt(**{knob: None}))

    # 6. Normalize the change kind and the seed.
    if scenario.change == "add_switch":
        candidates.append(attempt(change="remove_switch"))
    if scenario.seed != 0:
        candidates.append(attempt(seed=0))

    for candidate in candidates:
        if candidate is not None and candidate != scenario:
            yield candidate


def shrink_scenario(
    scenario: Scenario,
    reason: str,
    detail: str,
    evaluate: Evaluator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ShrinkResult:
    """Greedily minimize ``scenario`` while ``evaluate`` still fails
    it with ``reason``.

    Each round walks the candidate list in order and restarts from the
    first accepted simplification; the loop ends at a fixpoint (no
    candidate reproduces the failure) or after ``max_attempts``
    candidate evaluations.  A candidate failing with a *different*
    reason is rejected — the minimal scenario must reproduce the
    original failure, not merely some failure.
    """
    current, current_detail = scenario, detail
    attempts = rounds = steps = 0
    tried = {_canonical(scenario)}
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        rounds += 1
        for candidate in shrink_candidates(current):
            if attempts >= max_attempts:
                break
            key = _canonical(candidate)
            if key in tried:
                continue
            tried.add(key)
            attempts += 1
            try:
                verdict = evaluate(candidate)
            except Exception as exc:  # an evaluator must not abort a shrink
                verdict = (f"error:{type(exc).__name__}", str(exc))
            if verdict is not None and verdict[0] == reason:
                current, current_detail = candidate, verdict[1]
                steps += 1
                improved = True
                break
    return ShrinkResult(scenario=current, reason=reason,
                        detail=current_detail, attempts=attempts,
                        rounds=rounds, steps=steps)
