"""The unified Scenario API: one typed description per experiment run.

Every experiment entry point in this repository answers the same
question — *run one described simulation and measure it* — but they
historically grew separate signatures (``run_change_experiment``,
``reliability_job``, ``churn_job``...).  :class:`Scenario` is the one
typed description they all share now:

* a **topology** (a Table 1 name/alias, or a portable spec document),
* the **fabric parameters** (including the link error model),
* the **manager flavour** and **discovery algorithm**,
* the **fault plan** (change kind, churn schedule), and
* the **seed** every bit of per-run randomness derives from.

``Scenario.run()`` executes it, in process or — a scenario is a frozen,
picklable value — in a worker of the parallel executor
(:func:`repro.experiments.executor.run_many` takes scenarios directly,
so a sweep and a single run share one code path).
``to_dict``/``from_dict`` round-trip losslessly and reject unknown
keys, so an archived sweep configuration cannot silently drop a
misspelled error-model field.

Each kind is one :class:`~repro.experiments.family.Family`
declaration; :data:`FAMILIES` is the registry every consumer of "what
kinds are there and what does each need" reads (the CLI, the fuzz
oracle, progress lines).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from importlib import import_module
from typing import Optional, Union

from ..fabric.params import DEFAULT_PARAMS, FabricParams
from ..manager.fm import MANAGER_KINDS
from ..manager.timing import ALGORITHMS, PARALLEL, ProcessingTimeModel
from ..topology.spec import TopologySpec
from .family import ALGORITHM, MANAGER, POSITIVE, Axis, Family
from .runner import (
    ExperimentResult,
    SimulationSetup,
    apply_change,
    build_simulation,
    database_matches_fabric,
    prepare_change,
    run_until_ready,
)

#: Recognised scenario kinds.
KINDS = ("discover", "change", "reliability", "churn", "failover",
         "load")

#: Change kinds of the ``"change"`` scenario.
CHANGE_KINDS = ("remove_switch", "add_switch")

_SCHEMA = "repro/scenario/v1"

#: Algorithm keys accepted beside the three full-discovery ones
#: (``partial`` only labels stats; the manager field selects it).
_ALGORITHM_KEYS = tuple(ALGORITHMS)


def _normalize_document(value):
    """Deep copy of a JSON-ish document with tuples lowered to lists.

    Stored scenario documents must already be in JSON normal form so
    ``Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s``
    holds for every field — a spec document hand-built with tuple
    links must compare equal to its archived round trip.  The deep
    copy also severs every reference to caller-owned containers, so
    neither mutating the input afterwards nor mutating a rendered
    document can corrupt a frozen scenario.
    """
    if isinstance(value, dict):
        return {key: _normalize_document(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize_document(v) for v in value]
    return value


@dataclass(frozen=True)
class Scenario:
    """A complete, portable description of one experiment run.

    Attributes
    ----------
    kind:
        ``"discover"`` (one full initial discovery — Figs. 4/7/8),
        ``"change"`` (the Fig. 6/9 change-assimilation protocol),
        ``"reliability"`` (discovery under the link error model),
        ``"churn"`` (mid-discovery fault soak), ``"failover"`` (kill
        the FM, measure takeover), or ``"load"`` (the change protocol
        with application traffic flowing — discovery under load).
    topology:
        A Table 1 topology name or alias (``"4x4 mesh"``, ``mesh16``)
        or a :func:`~repro.experiments.io.spec_to_dict` document.
    algorithm:
        Discovery algorithm key.
    manager:
        FM flavour: ``"full"`` or ``"partial"``.
    seed:
        The per-run seed; every bit of randomness (victim choice,
        link-error streams, fault schedule, guard sampling) derives
        from it.
    change:
        Change kind for ``kind="change"`` (default ``remove_switch``).
    timing / params:
        Optional :meth:`ProcessingTimeModel.to_dict` /
        :meth:`FabricParams.to_dict` documents (model objects are
        accepted and normalized).
    max_retries:
        Per-request retry budget (reliability runs default to the
        reliability module's higher budget).
    faults / mean_interval / verify_sample:
        Churn fault plan and convergence-guard sample size (``None`` =
        the churn module's defaults).
    heartbeat_interval / miss_threshold / restart_primary:
        Failover plan for ``kind="failover"``: standby heartbeat
        tuning, and whether the dead primary is resurrected afterwards
        (the fencing duel).  The ``faults``/``mean_interval`` knobs
        double as the pre-kill churn schedule.
    traffic:
        A :meth:`~repro.workloads.traffic.TrafficSpec.to_dict`
        document (or a ``TrafficSpec`` instance, normalized on
        construction) describing the application workload for
        ``kind="load"``.  ``None`` means idle — a load scenario with
        no traffic runs the plain change protocol bit-identically.
    fm_options:
        Extra keyword arguments for the FM constructor (such as
        ``parallel_window``).
    """

    kind: str = "discover"
    topology: Union[str, dict, TopologySpec] = "4x4 mesh"
    algorithm: str = PARALLEL
    manager: str = "full"
    seed: int = 0
    change: Optional[str] = None
    timing: Optional[dict] = None
    params: Optional[dict] = None
    max_retries: Optional[int] = None
    faults: Optional[int] = None
    mean_interval: Optional[float] = None
    verify_sample: Optional[int] = None
    heartbeat_interval: Optional[float] = None
    miss_threshold: Optional[int] = None
    restart_primary: Optional[bool] = None
    traffic: Optional[dict] = None
    fm_options: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r} "
                f"(expected one of {KINDS})"
            )
        if self.manager not in MANAGER_KINDS:
            raise ValueError(
                f"unknown manager kind {self.manager!r} "
                f"(expected one of {MANAGER_KINDS})"
            )
        if self.algorithm not in _ALGORITHM_KEYS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r} "
                f"(expected one of {_ALGORITHM_KEYS})"
            )
        if self.change is not None and self.change not in CHANGE_KINDS:
            raise ValueError(
                f"unknown change kind {self.change!r} "
                f"(expected one of {CHANGE_KINDS})"
            )
        if (self.heartbeat_interval is not None
                and self.heartbeat_interval <= 0):
            raise ValueError("heartbeat interval must be positive")
        if self.miss_threshold is not None and self.miss_threshold < 1:
            raise ValueError("miss threshold must be at least 1")
        # Normalize model objects to their portable documents, and
        # validate documents eagerly — a bad field should fail at
        # description time, not inside a sweep worker.
        params = self.params
        if isinstance(params, FabricParams):
            params = params.to_dict()
        elif params is not None:
            FabricParams.from_dict(params)  # strict: raises on unknown
        timing = self.timing
        if isinstance(timing, ProcessingTimeModel):
            timing = timing.to_dict()
        elif timing is not None:
            ProcessingTimeModel.from_dict(timing)  # strict, like params
        traffic = self.traffic
        if traffic is not None:
            from ..workloads.traffic import TrafficSpec
            if isinstance(traffic, TrafficSpec):
                traffic = traffic.to_dict()
            else:
                TrafficSpec.from_dict(traffic)  # strict, like params
        topology = self.topology
        if isinstance(topology, TopologySpec):
            from .io import spec_to_dict
            topology = spec_to_dict(topology)
        # Store every document field in JSON normal form (deep-copied,
        # tuples lowered to lists) so serialization round-trips are
        # exact and no stored container aliases caller state.
        for name, value in (("params", params), ("timing", timing),
                            ("traffic", traffic),
                            ("topology", topology),
                            ("fm_options", self.fm_options)):
            if isinstance(value, dict) or value is not getattr(self, name):
                object.__setattr__(self, name, _normalize_document(value))

    # -- materialization -----------------------------------------------------
    def spec(self) -> TopologySpec:
        """Build the topology this scenario names or embeds."""
        if isinstance(self.topology, dict):
            from .io import spec_from_dict
            return spec_from_dict(self.topology)
        from ..topology.registry import resolve_topology
        return resolve_topology(self.topology)

    def fabric_params(self) -> FabricParams:
        if self.params is None:
            return DEFAULT_PARAMS
        return FabricParams.from_dict(self.params)

    def timing_model(self) -> Optional[ProcessingTimeModel]:
        if self.timing is None:
            return None
        return ProcessingTimeModel.from_dict(self.timing)

    def traffic_spec(self):
        """The embedded :class:`TrafficSpec`, or ``None`` when idle."""
        if self.traffic is None:
            return None
        from ..workloads.traffic import TrafficSpec
        return TrafficSpec.from_dict(self.traffic)

    def get(self, name: str, default):
        """Field ``name``, or ``default`` where the scenario leaves it
        unset — the one place a run body resolves an absent knob."""
        value = getattr(self, name)
        return default if value is None else value

    def build(self, spec: TopologySpec, tracer=None,
              params: Optional[FabricParams] = None,
              **fm_kwargs) -> SimulationSetup:
        """Instantiate ``spec`` as this scenario describes: algorithm,
        timing, fabric parameters (``params`` overrides them), manager
        flavour and FM options, plus the run body's own ``fm_kwargs``.
        """
        return build_simulation(
            spec, algorithm=self.algorithm, timing=self.timing_model(),
            params=self.fabric_params() if params is None else params,
            manager=self.manager, tracer=tracer,
            **fm_kwargs, **dict(self.fm_options or {}),
        )

    def describe(self) -> str:
        """Short human-readable identity for progress/error lines."""
        topology = self.topology
        if isinstance(topology, dict):
            topology = topology.get("name", "?")
        return " ".join((topology, self.algorithm,
                         *FAMILIES[self.kind].label(self)))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-ready rendering (every field, always).

        Document fields are deep-copied, so mutating the returned
        document (or anything nested in it) never touches the frozen
        scenario.
        """
        document = {"schema": _SCHEMA}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, dict):
                value = _normalize_document(value)
            document[spec_field.name] = value
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "Scenario":
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        kwargs = dict(document)
        schema = kwargs.pop("schema", _SCHEMA)
        if schema != _SCHEMA:
            raise ValueError(
                f"expected schema {_SCHEMA!r}, got {schema!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(
                f"unknown Scenario fields: {', '.join(unknown)}"
            )
        return cls(**kwargs)

    # -- execution -----------------------------------------------------------
    def run(self, tracer=None):
        """Execute this scenario (see :func:`run_scenario`)."""
        return run_scenario(self, tracer=tracer)


# -- the two run bodies that live here; the other families bring theirs ------

def _run_discover(scenario: Scenario, tracer=None):
    """One full initial discovery (the Figs. 4/7/8 measurement)."""
    setup = scenario.build(scenario.spec(), tracer, auto_start=False)
    setup.fm.start_discovery()
    stats = run_until_ready(setup)
    # Attach the measured mean FM processing time for Fig. 4, and the
    # ground-truth database check (the CLI's exit code).
    stats.mean_fm_time = setup.fm.mean_processing_time()
    stats.database_correct = database_matches_fabric(setup)
    if tracer is not None:
        tracer.finalize(setup)
    return stats


def _run_change(scenario: Scenario, tracer=None) -> ExperimentResult:
    """The paper's protocol: settle, change, measure rediscovery."""
    setup, change, victim = prepare_change(scenario, tracer)
    spec = setup.spec
    # Transient period: initial discovery + event-route programming.
    initial = run_until_ready(setup)
    assimilation = apply_change(setup, change, victim)

    active = len(setup.fabric.reachable_devices(setup.fm.endpoint.name))
    if tracer is not None:
        tracer.finalize(setup)
    return ExperimentResult(
        topology=spec.name,
        family=spec.family,
        algorithm=scenario.algorithm,
        seed=scenario.seed,
        change=change,
        changed_device=victim,
        total_devices=spec.total_devices,
        active_devices=active,
        initial=initial,
        assimilation=assimilation,
        database_correct=database_matches_fabric(setup),
    )


def _discover_record(stats) -> dict:
    return {**stats.asdict(), "mean_fm_time": stats.mean_fm_time,
            "database_correct": stats.database_correct}


def _discover_timing(point: dict) -> dict:
    return {"timing": ProcessingTimeModel(
        fm_factor=point["fm_factor"], device_factor=point["device_factor"],
    )}


def _change_label(scenario: Scenario):
    parts = (f"seed={scenario.seed}",)
    return parts + (scenario.change,) if scenario.change else parts


class _Families(Mapping):
    """``kind -> Family``.  A family declared in its own module is
    entered by its kind, which is that module's name, and imported the
    first time the kind is looked up: a run loads the one family it
    runs, a sweep worker the families of the jobs it was handed."""

    def __init__(self, *families):
        self._families = {getattr(family, "kind", family): family
                          for family in families}

    def __getitem__(self, kind: str) -> Family:
        family = self._families[kind]
        if isinstance(family, str):
            family = self._families[kind] = import_module(
                f"{__package__}.{kind}").FAMILY
        return family

    def __iter__(self):
        return iter(self._families)

    def __len__(self):
        return len(self._families)


#: Every scenario kind, in :data:`KINDS` order.
FAMILIES = _Families(
    Family(
        kind="discover",
        run=_run_discover,
        help="run one discovery",
        topology="3x3 mesh",
        title="Discovery of {topology} [{algorithm}] (seed {seed})",
        axes=(
            ALGORITHM,
            MANAGER,
            Axis("fm_factor", "--fm-factor", 1.0, None, type=POSITIVE),
            Axis("device_factor", "--device-factor", 1.0, None,
                 type=POSITIVE),
        ),
        compose=_discover_timing,
        record=_discover_record,
    ),
    Family(
        kind="change",
        run=_run_change,
        help="change-assimilation experiment",
        topology="4x4 mesh",
        title="Change assimilation on {topology} [{algorithm}] "
              "(seed {seed})",
        axes=(
            ALGORITHM,
            MANAGER,
            Axis("change", "--kind", "remove_switch", "change",
                 choices=CHANGE_KINDS),
        ),
        label=_change_label,
    ),
    "reliability", "churn", "failover", "load",
)


def run_scenario(scenario: Scenario, tracer=None):
    """Execute one scenario; returns its kind's result object.

    ``tracer`` is an optional :class:`repro.obs.session.TraceSession`;
    it is installed before the simulation starts and finalized when
    the run ends.  Tracing never perturbs the simulation, so a traced
    run's measurements are bit-identical to an untraced one.
    """
    return FAMILIES[scenario.kind].run(scenario, tracer=tracer)
