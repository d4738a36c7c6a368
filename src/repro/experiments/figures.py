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
from ..topology.table1 import table1_rows, table1_topology
from .report import render_kv, render_series, render_table
from .runner import ExperimentResult
from .scenario import Scenario
from .sweep import (
    DEVICE_FACTORS,
    FM_FACTORS,
    fig4_measurements,
    sweep_change_experiments,
    sweep_device_factor,
    sweep_fm_factor,
)

#: Display names matching the paper's legends.
ALGO_LABELS = {
    "serial_packet": "Serial Packet",
    "serial_device": "Serial Device",
    "parallel": "Parallel",
}


def _label(series: Dict[str, list]) -> Dict[str, list]:
    return {ALGO_LABELS.get(k, k): v for k, v in series.items()}


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
            algorithms: Sequence[str] = ALGORITHMS,
            jobs: int = 1) -> Tuple[dict, str]:
    """Fig. 4: mean PI-4 processing time at the FM vs network size."""
    if topologies is None:
        topologies = [
            table1_topology(n)
            for n in ("3x3 mesh", "4x4 mesh", "6x6 mesh", "8x8 mesh",
                      "10x10 torus")
        ]
    series = fig4_measurements(topologies, algorithms, jobs=jobs)
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

def figure6(results: Optional[List[ExperimentResult]] = None,
            seeds: Iterable[int] = range(2),
            topologies: Optional[Sequence[TopologySpec]] = None,
            jobs: int = 1) -> Tuple[dict, str]:
    """Fig. 6: discovery time per run (a) and per-topology means (b)."""
    if results is None:
        results = sweep_change_experiments(topologies=topologies,
                                           seeds=seeds, jobs=jobs)
    points_a: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
    for result in results:
        points_a[result.algorithm].append(
            (result.active_devices, result.discovery_time)
        )
    for points in points_a.values():
        points.sort()

    sums: Dict[Tuple[str, str, int], List[float]] = defaultdict(list)
    for result in results:
        sums[(result.algorithm, result.topology,
              result.total_devices)].append(result.discovery_time)
    points_b: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
    for (algorithm, _topology, total), times in sorted(sums.items()):
        points_b[algorithm].append((total, sum(times) / len(times)))
    for points in points_b.values():
        points.sort()

    data = {
        "per_run": dict(points_a),
        "per_topology_mean": dict(points_b),
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

def figure7(spec: Optional[TopologySpec] = None,
            timing: Optional[ProcessingTimeModel] = None,
            sample_every: int = 20) -> Tuple[dict, str]:
    """Fig. 7: per-packet FM timeline (a) and ideal pipelines (b)."""
    spec = spec or table1_topology("3x3 mesh")
    timing = timing or ProcessingTimeModel()
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
               if i % sample_every == 0 or i == len(points) - 1]
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
    series_a = sweep_fm_factor(spec, fm_factors, jobs=jobs)
    series_b = sweep_device_factor(spec, device_factors, jobs=jobs)
    text_a = render_series(
        f"Fig. 8(a). Discovery time vs FM processing factor "
        f"({spec.name}, device factor = 1)",
        "fm_factor", "discovery time (s)", _label(series_a),
    )
    text_b = render_series(
        f"Fig. 8(b). Discovery time vs device processing factor "
        f"({spec.name}, FM factor = 1)",
        "device_factor", "discovery time (s)", _label(series_b),
    )
    data = {"fm_factor": series_a, "device_factor": series_b}
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
    data = {}
    texts = []
    for panel, fm_factor, device_factor in FIG9_PANELS:
        timing = ProcessingTimeModel(fm_factor=fm_factor,
                                     device_factor=device_factor)
        results = sweep_change_experiments(
            topologies=topologies, seeds=seeds, timing=timing, jobs=jobs,
        )
        points: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        for result in results:
            points[result.algorithm].append(
                (result.active_devices, result.discovery_time)
            )
        for series in points.values():
            series.sort()
        data[panel] = {
            "fm_factor": fm_factor,
            "device_factor": device_factor,
            "series": dict(points),
        }
        texts.append(
            render_series(
                f"Fig. 9({panel}). FM factor={fm_factor}; "
                f"Device factor={device_factor}",
                "active_nodes", "discovery time (s)", _label(points),
            )
        )
    return data, "\n\n".join(texts)
