"""Tests for the discovery-under-loss reliability sweep."""

from dataclasses import replace

import pytest

from repro.experiments.family import render, summarize
from repro.experiments.reliability import (
    DEFAULT_BIT_ERROR_RATES,
    FAMILY,
    ReliabilityResult,
)
from repro.experiments.scenario import Scenario
from repro.experiments.executor import run_sweep
from repro.experiments.sweep import plan
from repro.fabric.params import DEFAULT_PARAMS
from repro.topology.table1 import table1_topology

MESH = table1_topology("3x3 mesh")
RATES = (0.0, 5e-5, 1e-4)


def run_reliability(spec, algorithm, **fields):
    return Scenario(kind="reliability", topology=spec,
                    algorithm=algorithm, **fields).run()


class TestSingleRun:
    def test_perfect_channel_matches_golden_no_recovery(self):
        result = run_reliability(MESH, "parallel")
        assert result.database_correct
        assert result.retries == 0
        assert result.timeouts == 0
        assert result.crc_drops == 0
        assert result.lost_packets == 0
        assert result.bit_error_rate == 0.0

    def test_lossy_run_recovers_via_retries(self):
        params = replace(DEFAULT_PARAMS, bit_error_rate=1e-4)
        result = run_reliability(
            MESH, "parallel", params=params, seed=0
        )
        assert result.database_correct
        assert result.crc_drops > 0
        assert result.retries > 0
        assert result.devices_found == MESH.total_devices

    def test_recovery_counters_of_a_lossy_replaying_run_are_pinned(self):
        """Retries, link replays and CRC drops together exercise every
        recovery counter the one-decode receive path passes: a request
        seen twice, a completion nobody waits for.  The numbers are the
        run's before that path was rewritten, kernel vitals included."""
        from repro.experiments.runner import (
            build_simulation,
            run_until_ready,
        )

        params = replace(DEFAULT_PARAMS, bit_error_rate=5e-5,
                         duplicate_rate=0.05, error_seed=0)
        setup = build_simulation(MESH, algorithm="parallel", params=params,
                                 max_retries=8)
        stats = run_until_ready(setup)
        totals = {}
        for entity in setup.entities.values():
            for key, count in entity.stats.asdict().items():
                totals[key] = totals.get(key, 0) + count
        assert totals["duplicate_requests"] == 42
        assert totals.get("unexpected_completions", 0) == 0
        assert totals.get("pi4_decode_errors", 0) == 0
        assert totals["rx_mgmt_packets"] == 487
        assert setup.fm.counters["stale_completions"] == 52
        assert setup.fm.counters["retries"] == 23
        assert (stats.stale_completions, stats.retries) == (46, 22)
        vitals = setup.env.vitals()
        # (4,149, 6,988) while every retry timer and URGENT attach kick
        # was a heap entry.  Gone: the 42 kicks (one per attached port,
        # none found a packet) and 119 of the 215 timer pops, 192 of
        # which found their transaction closed.  Still popping: the 23
        # retransmissions and 73 closed timers — FIFO heads that closed
        # before they fired, each FIFO's last timer (kept so the heap
        # empties when the eager one did), and 76 pushed because they
        # fell due at an instant where a timer of their period acted or
        # other work was due: their eager entries stood on the heap
        # then, so pushing them keeps ``quiet()`` what it was.  No
        # number is drawn differently.
        assert (vitals["events_executed"],
                vitals["sequence_numbers_drawn"]) == (3_988, 6_988)

    def test_asdict_round_trip(self):
        result = run_reliability(MESH, "parallel")
        info = result.asdict()
        assert ReliabilityResult(**info) == result


class TestSweep:
    @pytest.fixture(scope="class")
    def results(self):
        return run_sweep(plan(
            FAMILY, MESH, bit_error_rates=RATES, algorithms=("parallel",),
        ))

    def test_one_result_per_rate_in_submission_order(self, results):
        assert [r.bit_error_rate for r in results] == list(RATES)
        assert all(r.database_correct for r in results)

    def test_discovery_time_degrades_monotonically(self, results):
        times = [r.discovery_time for r in results]
        assert all(b >= a for a, b in zip(times, times[1:]))
        # And the lossiest point is strictly slower than the perfect
        # channel (the sweep must measure something).
        assert times[-1] > times[0]

    def test_parallel_workers_match_serial(self, results):
        fanned = run_sweep(plan(
            FAMILY, MESH, bit_error_rates=RATES, algorithms=("parallel",),
        ), workers=2, progress=False)
        assert fanned == results


class TestSummaryAndRendering:
    def _fake(self, algorithm, rate, time, correct=True):
        return ReliabilityResult(
            topology="t", family="mesh", algorithm=algorithm, seed=0,
            bit_error_rate=rate, packet_loss_rate=0.0, duplicate_rate=0.0,
            discovery_time=time, devices_found=5, requests_sent=10,
            retries=1, timeouts=0, stale_completions=0,
            duplicate_requests=0, crc_drops=2, lost_packets=0,
            replayed_packets=0, database_correct=correct,
        )

    def test_summarize_groups_and_averages(self):
        rows = summarize(FAMILY, [
            self._fake("parallel", 1e-5, 2.0),
            self._fake("parallel", 1e-5, 4.0),
            self._fake("parallel", 0.0, 1.0),
            self._fake("serial", 0.0, 5.0, correct=False),
        ])
        assert [(r["algorithm"], r["bit_error_rate"]) for r in rows] == [
            ("parallel", 0.0), ("parallel", 1e-5), ("serial", 0.0),
        ]
        assert rows[1]["runs"] == 2
        assert rows[1]["mean_discovery_time"] == pytest.approx(3.0)
        assert rows[0]["all_correct"] is True
        assert rows[2]["all_correct"] is False

    def test_render_produces_table_with_title(self):
        rows = summarize(FAMILY, [self._fake("parallel", 0.0, 1.0)])
        text = render(FAMILY, rows, title="Loss sweep")
        assert text.startswith("Loss sweep\n")
        assert "parallel" in text
        assert "CRC drops" in text

    def test_default_rates_start_at_perfect_channel(self):
        assert DEFAULT_BIT_ERROR_RATES[0] == 0.0
        assert list(DEFAULT_BIT_ERROR_RATES) == sorted(
            DEFAULT_BIT_ERROR_RATES
        )
