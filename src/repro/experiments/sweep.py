"""The cross product of an experiment family's sweep.

Run one with ``run_sweep(plan(family, topology, ...), workers=N)``;
the paper's figures build their own grids (:mod:`.figures`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Union

from ..topology.spec import TopologySpec
from .family import Family
from .io import spec_to_dict
from .scenario import Scenario

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
