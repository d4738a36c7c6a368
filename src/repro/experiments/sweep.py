"""Parameter sweeps: the generic family sweep and the paper's figures."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..manager.timing import ALGORITHMS, ProcessingTimeModel
from ..topology.spec import TopologySpec
from ..topology.table1 import table1_suite
from .executor import run_sweep
from .family import Family
from .io import spec_to_dict
from .runner import ExperimentResult
from .scenario import Scenario

#: Default FM processing factors swept in Fig. 8(a).
FM_FACTORS = (0.25, 1 / 3, 0.5, 1.0, 2.0, 3.0, 4.0)
#: Default device processing factors swept in Fig. 8(b).
DEVICE_FACTORS = (0.05, 0.1, 0.2, 1 / 3, 0.5, 1.0, 2.0, 4.0)

Topology = Union[str, dict, TopologySpec]


def plan(family: Family, topology: Topology,
         seeds: Iterable[int] = (0,), **settings) -> List[Scenario]:
    """The scenarios of one sweep of ``family`` over ``topology``.

    ``settings`` are keyed by the family's axis names (absent ones take
    the axis default); any other key is a Scenario field set on every
    run (``timing=...``, ``max_retries=...``).  Swept axes are crossed
    in declaration order, outermost first, seeds innermost — the order
    the results come back in.
    """
    seeds = list(seeds)
    if isinstance(topology, TopologySpec):
        topology = spec_to_dict(topology)  # validate and render once
    point = {axis.name: settings.pop(axis.name, axis.default)
             for axis in family.axes}
    swept = [axis for axis in family.axes if axis.swept]
    scenarios = []
    for combination in itertools.product(*(point[a.name] for a in swept)):
        point.update(zip((a.name for a in swept), combination))
        fields = {axis.field: point[axis.name]
                  for axis in family.axes if axis.field is not None}
        if family.compose is not None:
            fields.update(family.compose(point))
        fields.update(settings)
        scenarios += [
            Scenario(kind=family.kind, topology=topology, seed=seed,
                     **fields)
            for seed in seeds
        ]
    return scenarios


def representative(family: Family, topology: Topology, seed: int = 0,
                   **settings) -> Scenario:
    """The one scenario of :func:`plan` a ``--trace`` flag runs: every
    swept axis at its :attr:`~repro.experiments.family.Axis.pick`."""
    for axis in family.axes:
        if axis.swept:
            values = settings.get(axis.name, axis.default)
            settings[axis.name] = (axis.pick(values),)
    return plan(family, topology, seeds=(seed,), **settings)[0]


def sweep_family(family: Family, topology: Topology,
                 seeds: Iterable[int] = (0,), workers: int = 1,
                 progress=None, **settings) -> list:
    """Run :func:`plan` through the executor; results in plan order —
    identical to a serial sweep."""
    return run_sweep(plan(family, topology, seeds=seeds, **settings),
                     workers=workers, progress=progress)


def sweep_change_experiments(
    topologies: Optional[Sequence[TopologySpec]] = None,
    algorithms: Sequence[str] = ALGORITHMS,
    seeds: Iterable[int] = range(3),
    timing: Optional[ProcessingTimeModel] = None,
    jobs: int = 1,
    progress=None,
) -> List[ExperimentResult]:
    """The Fig. 6 / Fig. 9 protocol over a topology suite.

    Each seed alternates removal and addition changes, mirroring the
    paper's "addition or removal of a randomly chosen fabric switch...
    repeated several times for each topology".  ``jobs`` worker
    processes run the suite in parallel; the returned list is
    identical, run for run, to the serial (``jobs=1``) order.
    """
    topologies = list(topologies) if topologies else table1_suite()
    joblist = [
        Scenario(
            kind="change", topology=spec, algorithm=algorithm, seed=seed,
            change="remove_switch" if seed % 2 == 0 else "add_switch",
            timing=timing,
        )
        for spec in topologies
        for algorithm in algorithms
        for seed in seeds
    ]
    return run_sweep(joblist, workers=jobs, progress=progress)


def _factor_sweep(
    spec: TopologySpec,
    factors: Sequence[float],
    algorithms: Sequence[str],
    base: ProcessingTimeModel,
    which: str,
    jobs: int,
    progress,
) -> Dict[str, List[Tuple[float, float]]]:
    grid = [(algorithm, factor)
            for algorithm in algorithms for factor in factors]
    joblist = [
        Scenario(kind="discover", topology=spec, algorithm=algorithm,
                 timing=base.with_factors(**{which: factor}))
        for algorithm, factor in grid
    ]
    series: Dict[str, List[Tuple[float, float]]] = {
        algorithm: [] for algorithm in algorithms
    }
    for (algorithm, factor), stats in zip(
            grid, run_sweep(joblist, workers=jobs, progress=progress)):
        series[algorithm].append((factor, stats.discovery_time))
    return series


def sweep_fm_factor(
    spec: TopologySpec,
    factors: Sequence[float] = FM_FACTORS,
    algorithms: Sequence[str] = ALGORITHMS,
    base_timing: Optional[ProcessingTimeModel] = None,
    jobs: int = 1,
    progress=None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 8(a): discovery time vs FM processing factor."""
    base = base_timing or ProcessingTimeModel()
    return _factor_sweep(spec, factors, algorithms, base, "fm_factor",
                         jobs, progress)


def sweep_device_factor(
    spec: TopologySpec,
    factors: Sequence[float] = DEVICE_FACTORS,
    algorithms: Sequence[str] = ALGORITHMS,
    base_timing: Optional[ProcessingTimeModel] = None,
    jobs: int = 1,
    progress=None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 8(b): discovery time vs device processing factor."""
    base = base_timing or ProcessingTimeModel()
    return _factor_sweep(spec, factors, algorithms, base, "device_factor",
                         jobs, progress)


def fig4_measurements(
    topologies: Optional[Sequence[TopologySpec]] = None,
    algorithms: Sequence[str] = ALGORITHMS,
    timing: Optional[ProcessingTimeModel] = None,
    jobs: int = 1,
    progress=None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Fig. 4: measured mean FM PI-4 processing time vs network size.

    The x axis is the switch count, as in the paper.
    """
    topologies = list(topologies) if topologies else table1_suite()
    grid = [(spec, algorithm)
            for spec in topologies for algorithm in algorithms]
    joblist = [
        Scenario(kind="discover", topology=spec, algorithm=algorithm,
                 timing=timing)
        for spec, algorithm in grid
    ]
    series: Dict[str, List[Tuple[int, float]]] = {a: [] for a in algorithms}
    for (spec, algorithm), stats in zip(
            grid, run_sweep(joblist, workers=jobs, progress=progress)):
        series[algorithm].append((spec.num_switches, stats.mean_fm_time))
    for points in series.values():
        points.sort()
    return series
