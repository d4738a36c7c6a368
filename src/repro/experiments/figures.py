"""Per-figure data builders.

One function per table/figure of the paper's evaluation section; each
returns ``(data, text)`` where ``data`` is plain Python (dicts/lists,
ready for any plotting front end) and ``text`` is the rendered ASCII
reproduction ``repro figure`` prints.  ``tests/claims.py`` checks the
paper's statements against ``data``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.model import PipelineModel
from ..manager.timing import ALGORITHMS, ProcessingTimeModel
from ..topology.spec import TopologySpec
from ..topology.table1 import table1_rows, table1_suite, table1_topology
from .executor import run_sweep
from .report import render_kv, render_series, render_table
from .runner import ExperimentResult
from .scenario import Scenario

#: Default FM processing factors swept in Fig. 8(a).
FM_FACTORS = (0.25, 1 / 3, 0.5, 1.0, 2.0, 3.0, 4.0)
#: Default device processing factors swept in Fig. 8(b).
DEVICE_FACTORS = (0.05, 0.1, 0.2, 1 / 3, 0.5, 1.0, 2.0, 4.0)

Series = Dict[str, List[Tuple[float, float]]]

#: Display names matching the paper's legends.
ALGO_LABELS = {
    "serial_packet": "Serial Packet",
    "serial_device": "Serial Device",
    "parallel": "Parallel",
}


def _label(series: Dict[str, list]) -> Dict[str, list]:
    return {ALGO_LABELS.get(k, k): v for k, v in series.items()}


def _series(cells: Iterable[Tuple[str, float, float]]) -> Series:
    """``(algorithm, x, y)`` cells as ``{algorithm: [(x, y)]}``, each
    series sorted; algorithms in the order their first cell came."""
    series: Series = defaultdict(list)
    for algorithm, x, y in cells:
        series[algorithm].append((x, y))
    for points in series.values():
        points.sort()
    return dict(series)


def _change_grid(topologies: Optional[Sequence[TopologySpec]],
                 seeds: Iterable[int],
                 timings: Sequence[Optional[ProcessingTimeModel]] = (None,),
                 ) -> List[Scenario]:
    """The Fig. 6 / Fig. 9 protocol over a topology suite (Table 1's by
    default), once per timing model (the default one by default).

    Each seed alternates removal and addition changes, mirroring the
    paper's "addition or removal of a randomly chosen fabric switch...
    repeated several times for each topology".  ``seeds`` is read
    once, so any iterable serves every cell.
    """
    seeds = tuple(seeds)
    return [
        Scenario(kind="change", topology=spec, algorithm=algorithm,
                 seed=seed, timing=timing,
                 change="remove_switch" if seed % 2 == 0 else "add_switch")
        for timing in timings
        for spec in topologies or table1_suite()
        for algorithm in ALGORITHMS
        for seed in seeds
    ]


def _per_run(results: Iterable[ExperimentResult]) -> Series:
    """Fig. 6(a)'s series: discovery time against active devices."""
    return _series((result.algorithm, result.active_devices,
                    result.discovery_time) for result in results)


# -- Table 1 -----------------------------------------------------------------

def figure_table1() -> Tuple[List[dict], str]:
    """Table 1: the evaluated topologies."""
    rows = table1_rows()
    text = render_table(
        ["Topology", "Switches", "Endpoints", "Total Devices"],
        [[r["topology"], r["switches"], r["endpoints"],
          r["total_devices"]] for r in rows],
    )
    return rows, "Table 1. Topologies evaluated\n" + text


# -- Fig. 4 ------------------------------------------------------------------

def figure4(topologies: Optional[Sequence[TopologySpec]] = None,
            jobs: int = 1) -> Tuple[dict, str]:
    """Fig. 4: mean PI-4 processing time at the FM vs network size.

    The x axis is the switch count, as in the paper.
    """
    topologies = topologies or [
        table1_topology(n) for n in ("3x3 mesh", "4x4 mesh", "6x6 mesh",
                                     "8x8 mesh", "10x10 torus")]
    cells = [(spec, algorithm)
             for spec in topologies for algorithm in ALGORITHMS]
    results = run_sweep([
        Scenario(kind="discover", topology=spec, algorithm=algorithm)
        for spec, algorithm in cells
    ], workers=jobs)
    series = _series(
        (algorithm, spec.num_switches, stats.mean_fm_time)
        for (spec, algorithm), stats in zip(cells, results))
    data = {"series": series}
    display = {
        name: [(x, y * 1e6) for x, y in points]
        for name, points in _label(series).items()
    }
    text = render_series(
        "Fig. 4. Average time to process a PI-4 packet at the FM",
        "switches", "PI-4 processing time (microsec)", display,
    )
    return data, text


# -- Fig. 6 ------------------------------------------------------------------

def figure6(seeds: Iterable[int] = range(2),
            topologies: Optional[Sequence[TopologySpec]] = None,
            jobs: int = 1) -> Tuple[dict, str]:
    """Fig. 6: discovery time per run (a) and per-topology means (b)."""
    results = run_sweep(_change_grid(topologies, seeds), workers=jobs)
    points_a = _per_run(results)
    sums: Dict[Tuple[str, str, int], List[float]] = defaultdict(list)
    for result in results:
        sums[(result.algorithm, result.topology,
              result.total_devices)].append(result.discovery_time)
    points_b = _series(
        (algorithm, total, sum(times) / len(times))
        for (algorithm, _topology, total), times in sorted(sums.items()))

    data = {
        "per_run": points_a,
        "per_topology_mean": points_b,
        "runs": [r.asdict() for r in results],
    }
    text_a = render_series(
        "Fig. 6(a). Discovery time versus the amount of active nodes",
        "active_nodes", "discovery time (s)", _label(points_a),
    )
    text_b = render_series(
        "Fig. 6(b). Discovery time versus the network size (averages)",
        "physical_nodes", "discovery time (s)", _label(points_b),
    )
    return data, text_a + "\n\n" + text_b


# -- Fig. 7 ------------------------------------------------------------------

#: Fig. 7(a) plots every this-many-th packet, and the last.
SAMPLE_EVERY = 20


def figure7(spec: Optional[TopologySpec] = None) -> Tuple[dict, str]:
    """Fig. 7: per-packet FM timeline (a) and ideal pipelines (b)."""
    spec = spec or table1_topology("3x3 mesh")
    timing = ProcessingTimeModel()
    timelines: Dict[str, List[Tuple[int, float]]] = {}
    slopes: Dict[str, float] = {}
    for algorithm in ALGORITHMS:
        stats = Scenario(kind="discover", topology=spec,
                         algorithm=algorithm, timing=timing).run()
        times = stats.packet_timeline
        first_n = stats.completions_received - len(times) + 1
        timelines[algorithm] = list(enumerate(times, first_n))
        slopes[algorithm] = (times[-1] - times[0]) / max(1, len(times) - 1)

    sampled = {
        name: [p for i, p in enumerate(points)
               if i % SAMPLE_EVERY == 0 or i == len(points) - 1]
        for name, points in timelines.items()
    }
    text_a = render_series(
        f"Fig. 7(a). Time at which each discovery packet is processed "
        f"({spec.name})",
        "packet_number", "simulation time (s)", _label(sampled),
    )

    model = PipelineModel.from_parameters(
        timing, "serial_packet", known_devices=spec.total_devices // 2,
    )
    parallel_model = PipelineModel.from_parameters(
        timing, "parallel", known_devices=spec.total_devices // 2,
    )
    ideal = {
        "T_FM (serial pkt)": model.t_fm,
        "T_Device": model.t_device,
        "T_Prop (one way)": model.t_prop,
        "serial period  = T_FM + 2*T_Prop + T_Device": model.serial_period,
        "parallel period = T_FM": parallel_model.parallel_period,
        "measured serial slope": slopes["serial_packet"],
        "measured parallel slope": slopes["parallel"],
    }
    text_b = render_kv(
        "Fig. 7(b). Ideal serial and parallel behaviours (s/packet)",
        ideal,
    )
    data = {"timelines": timelines, "slopes": slopes, "ideal": ideal}
    return data, text_a + "\n\n" + text_b


# -- Fig. 8 ------------------------------------------------------------------

def figure8(spec: Optional[TopologySpec] = None,
            fm_factors: Sequence[float] = FM_FACTORS,
            device_factors: Sequence[float] = DEVICE_FACTORS,
            jobs: int = 1) -> Tuple[dict, str]:
    """Fig. 8: discovery time vs FM factor (a) and device factor (b)."""
    spec = spec or table1_topology("8x8 mesh")
    runs = [(which, algorithm, factor)
            for which, factors in (("fm_factor", fm_factors),
                                   ("device_factor", device_factors))
            for algorithm in ALGORITHMS for factor in factors]
    results = run_sweep([
        Scenario(kind="discover", topology=spec, algorithm=algorithm,
                 timing=ProcessingTimeModel(**{which: factor}))
        for which, algorithm, factor in runs
    ], workers=jobs)
    data = {
        panel: _series((algorithm, factor, stats.discovery_time)
                       for (which, algorithm, factor), stats
                       in zip(runs, results) if which == panel)
        for panel in ("fm_factor", "device_factor")
    }
    text_a = render_series(
        f"Fig. 8(a). Discovery time vs FM processing factor "
        f"({spec.name}, device factor = 1)",
        "fm_factor", "discovery time (s)", _label(data["fm_factor"]),
    )
    text_b = render_series(
        f"Fig. 8(b). Discovery time vs device processing factor "
        f"({spec.name}, FM factor = 1)",
        "device_factor", "discovery time (s)", _label(data["device_factor"]),
    )
    return data, text_a + "\n\n" + text_b


# -- Fig. 9 ------------------------------------------------------------------

#: The paper's three (FM factor, device factor) corners.
FIG9_PANELS = (
    ("a", 1.0, 1.0),
    ("b", 1.0, 0.2),
    ("c", 4.0, 0.2),
)


def figure9(topologies: Optional[Sequence[TopologySpec]] = None,
            seeds: Iterable[int] = range(2),
            jobs: int = 1) -> Tuple[dict, str]:
    """Fig. 9: the Fig. 6(a) study at three processing-factor corners."""
    results = run_sweep(_change_grid(topologies, seeds, [
        ProcessingTimeModel(fm_factor=fm_factor, device_factor=device_factor)
        for _panel, fm_factor, device_factor in FIG9_PANELS]), workers=jobs)
    size = len(results) // len(FIG9_PANELS)
    data, texts = {}, []
    for i, (panel, fm_factor, device_factor) in enumerate(FIG9_PANELS):
        points = _per_run(results[i * size:(i + 1) * size])
        data[panel] = {"fm_factor": fm_factor,
                       "device_factor": device_factor, "series": points}
        texts.append(render_series(
            f"Fig. 9({panel}). FM factor={fm_factor}; "
            f"Device factor={device_factor}",
            "active_nodes", "discovery time (s)", _label(points)))
    return data, "\n\n".join(texts)
