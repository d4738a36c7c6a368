"""Tests for the experiment sweeps and figure builders (small scale)."""

import hashlib

import pytest

from repro.experiments.figures import (
    figure4,
    figure6,
    figure7,
    figure8,
    figure9,
    figure_table1,
)
from repro.experiments.io import spec_to_dict
from repro.experiments.scenario import Scenario
from repro.manager import ALGORITHMS, PARALLEL, SERIAL_PACKET
from repro.topology import make_mesh, table1_topology

SMALL = [make_mesh(2, 2), make_mesh(2, 3)]


def _change(spec, seed=0, **extra):
    return Scenario(kind="change", topology=spec_to_dict(spec),
                    seed=seed, **extra).run()


class TestRunner:
    def test_change_experiment_result_fields(self):
        result = _change(make_mesh(3, 3), seed=3)
        d = result.asdict()
        assert d["topology"] == "3x3 mesh"
        assert d["database_correct"] is True
        assert d["discovery_time"] > 0
        assert 0 < d["active_devices"] <= 18

    def test_unknown_change_kind_rejected(self):
        with pytest.raises(ValueError):
            _change(make_mesh(2, 2), change="paint_it_red")

    def test_removal_reduces_active_devices(self):
        result = _change(make_mesh(3, 3), change="remove_switch", seed=0)
        assert result.active_devices < result.total_devices

    def test_seeds_choose_different_victims(self):
        victims = {
            _change(make_mesh(3, 3), seed=s).changed_device
            for s in range(6)
        }
        assert len(victims) > 1


class TestSweeps:
    def test_change_sweep_shape(self):
        runs = figure6(topologies=SMALL, seeds=range(2))[0]["runs"]
        assert len(runs) == len(SMALL) * len(ALGORITHMS) * 2
        # Spec-major, then algorithm, then seed; seeds alternate changes.
        assert [(r["topology"], r["algorithm"], r["seed"], r["change"])
                for r in runs[:2]] == [
            ("2x2 mesh", SERIAL_PACKET, 0, "remove_switch"),
            ("2x2 mesh", SERIAL_PACKET, 1, "add_switch")]
        assert all(r["database_correct"] for r in runs)

    def test_seeds_may_be_any_iterable(self):
        """The seeds were once iterated per (topology, algorithm) cell,
        so an iterator fed only the first cell: 2 runs, not 6."""
        runs = figure6(topologies=[make_mesh(2, 2)],
                       seeds=iter(range(2)))[0]["runs"]
        assert [(r["algorithm"], r["seed"]) for r in runs] == [
            (algorithm, seed) for algorithm in ALGORITHMS
            for seed in range(2)]
        data, _ = figure9(topologies=[make_mesh(2, 2)], seeds=iter([0]))
        assert all(sum(len(points) for points in panel["series"].values())
                   == len(ALGORITHMS) for panel in data.values())

    def test_fm_factor_sweep_monotone(self):
        data, _ = figure8(make_mesh(2, 2), fm_factors=(0.5, 1.0, 2.0),
                          device_factors=(1.0,))
        times = [t for _f, t in data["fm_factor"][SERIAL_PACKET]]
        assert times[0] > times[1] > times[2]

    def test_device_factor_sweep_monotone_for_serial(self):
        data, _ = figure8(make_mesh(2, 2), fm_factors=(1.0,),
                          device_factors=(0.2, 1.0))
        times = dict(data["device_factor"][SERIAL_PACKET])
        assert times[0.2] > times[1.0]
        # Each panel holds the other factor at 1: the two meet there.
        assert data["fm_factor"][SERIAL_PACKET] == [
            (1.0, times[1.0])]

    def test_measure_attaches_mean_fm_time(self):
        stats = Scenario(kind="discover", topology=make_mesh(2, 2),
                         algorithm=PARALLEL).run()
        assert 5e-6 < stats.mean_fm_time < 30e-6


class TestFigureBuilders:
    def test_table1(self):
        rows, text = figure_table1()
        assert len(rows) == 13
        assert "10x10 torus" in text

    def test_figure4_small(self):
        data, text = figure4(topologies=SMALL)
        assert set(data["series"]) == set(ALGORITHMS)
        # Fig. 4 ordering in the measured values too.
        for (_, sp), (_, pa) in zip(
            data["series"]["serial_packet"], data["series"]["parallel"]
        ):
            assert sp > pa
        assert "Fig. 4" in text

    def test_figure6_small(self):
        data, text = figure6(topologies=SMALL, seeds=range(1))
        assert set(data["per_run"]) == set(ALGORITHMS)
        assert "Fig. 6(a)" in text and "Fig. 6(b)" in text
        # Parallel strictly fastest on every topology mean.
        means = data["per_topology_mean"]
        for (x_sp, t_sp), (x_p, t_p) in zip(
            means["serial_packet"], means["parallel"]
        ):
            assert x_sp == x_p
            assert t_p < t_sp

    def test_figure7_slopes_match_model(self):
        data, text = figure7(spec=make_mesh(2, 2))
        ideal = data["ideal"]
        assert data["slopes"]["parallel"] == pytest.approx(
            ideal["parallel period = T_FM"], rel=0.1
        )
        assert data["slopes"]["serial_packet"] == pytest.approx(
            ideal["serial period  = T_FM + 2*T_Prop + T_Device"], rel=0.1
        )
        assert "Fig. 7(b)" in text

    def test_figure7_reads_the_flat_timeline_as_before(self):
        """The timeline is an array of FM times; the ``(n, t)`` pairs
        and the slopes ``figure7`` derives from it are those it read
        when the timeline stored the pairs themselves."""
        data, _ = figure7()
        assert data["slopes"] == {
            "serial_packet": 2.269611235955155e-05,
            "serial_device": 1.708560674157341e-05,
            "parallel": 1.3308842696629246e-05,
        }
        ends = {name: (len(points), points[0], points[-1])
                for name, points in data["timelines"].items()}
        assert ends == {
            "serial_packet":
                (179, (1, 2.15e-05), (179, 0.004061408000000176)),
            "serial_device":
                (179, (1, 1.85e-05), (179, 0.0030597380000000666)),
            "parallel": (179, (1, 1.55e-05), (179, 0.0023844740000000058)),
        }

    def test_figure8_small(self):
        data, text = figure8(
            spec=make_mesh(2, 2),
            fm_factors=(0.5, 1.0, 4.0),
            device_factors=(0.2, 1.0),
        )
        fm = data["fm_factor"]
        # Faster FM -> smaller times for every algorithm.
        for algo, points in fm.items():
            times = [t for _f, t in points]
            assert times == sorted(times, reverse=True)
        # Device slowdown hurts serial but not parallel.
        dev = data["device_factor"]
        sp = dict(dev["serial_packet"])
        pa = dict(dev["parallel"])
        assert sp[0.2] > sp[1.0] * 1.05
        assert pa[0.2] < pa[1.0] * 1.05
        assert "Fig. 8(a)" in text

    def test_figure9_small(self):
        data, text = figure9(topologies=[make_mesh(2, 2)], seeds=range(1))
        assert set(data) == {"a", "b", "c"}
        assert data["c"]["fm_factor"] == 4.0
        assert "Fig. 9(c)" in text


#: The suite the pins below run on: small enough for tier-1, large
#: enough that every algorithm, seed parity and panel shows.
PINNED = [make_mesh(2, 2), make_mesh(2, 3), make_mesh(3, 3)]


class TestPins:
    """sha256 of ``repr((data, text))``: key order, tuple-vs-list and
    every float digit of the builders' output, pinned byte for byte."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: figure4(topologies=PINNED),
         "62f5d60a98a19bcce0b6fa429dfd6a1613883623b3607fc5a057926d8891206d"),
        (lambda: figure6(topologies=PINNED),
         "26ac59140afc60b16e2a9c3702b097cfb563121dc03f03a4cebc6a21e8947e43"),
        (lambda: figure8(spec=make_mesh(3, 3)),
         "67bf29d965116d11ad638121eed46c8e8819920b6b85ac563c29c9275af6b500"),
        (lambda: figure9(topologies=PINNED),
         "f553ad30aec28ddee91e1f3290a2ae2d3ac17b7299f3ae1cfd83a33de8ff9e1a"),
    ], ids=["figure4", "figure6", "figure8", "figure9"])
    def test_output_is_pinned(self, build, digest):
        assert hashlib.sha256(repr(build()).encode()).hexdigest() == digest
