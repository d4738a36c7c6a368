"""Tests for the process-parallel sweep executor."""

import pytest

import repro.experiments.executor as executor_module
from repro.experiments.executor import SweepError, run_many, run_sweep
from repro.experiments.scenario import Scenario
from repro.experiments.figures import figure6, figure8
from repro.manager.timing import ProcessingTimeModel
from repro.topology import make_mesh, make_torus


def _change(spec, algorithm, **fields):
    return Scenario(kind="change", topology=spec, algorithm=algorithm,
                    **fields)


def _discover(spec, algorithm, **fields):
    return Scenario(kind="discover", topology=spec, algorithm=algorithm,
                    **fields)


def _quick_jobs():
    """A small but heterogeneous suite: both kinds, several algorithms,
    seeds, changes, and a non-default timing model."""
    mesh, torus = make_mesh(2, 2), make_torus(3, 3)
    timing = ProcessingTimeModel(fm_factor=2.0)
    return [
        _change(mesh, "parallel", seed=0, change="remove_switch"),
        _change(mesh, "serial_device", seed=1, change="add_switch"),
        _change(torus, "parallel", seed=2, change="remove_switch",
                timing=timing),
        _discover(mesh, "serial_packet"),
        _discover(torus, "parallel", timing=timing),
    ]


def _fingerprint(result):
    """Comparable rendering of either job kind's result."""
    if hasattr(result, "asdict"):
        return result.asdict()
    raise AssertionError(f"unexpected result {result!r}")


class TestDeterminism:
    def test_parallel_identical_to_serial(self):
        jobs = _quick_jobs()
        serial = run_many(jobs, workers=1)
        parallel = run_many(jobs, workers=3)
        assert not serial.failures and not parallel.failures
        assert parallel.workers > 1  # the pool really was used
        for a, b in zip(serial.results, parallel.results):
            assert _fingerprint(a) == _fingerprint(b)

    def test_results_stay_in_submission_order(self):
        jobs = _quick_jobs()
        report = run_many(jobs, workers=2)
        for job, result in zip(jobs, report.results):
            info = _fingerprint(result)
            assert info["algorithm"] == job.algorithm
            if job.kind == "change":
                assert info["seed"] == job.seed
                assert info["change"] == job.change

    def test_sweep_jobs_parameter_is_transparent(self):
        topologies = [make_mesh(2, 2)]
        serial = figure6(topologies=topologies, seeds=range(2))
        parallel = figure6(topologies=topologies, seeds=range(2), jobs=2)
        assert serial == parallel

    def test_factor_sweep_jobs_parameter_is_transparent(self):
        spec = make_mesh(2, 2)
        serial = figure8(spec, fm_factors=(0.5, 2.0),
                         device_factors=(0.2, 1.0))
        parallel = figure8(spec, fm_factors=(0.5, 2.0),
                           device_factors=(0.2, 1.0), jobs=2)
        assert serial == parallel


class TestFailureHandling:
    def test_failure_carries_job_and_spares_the_rest(self):
        good = _change(make_mesh(2, 2), "parallel", seed=0)
        bad = _change(make_mesh(2, 2), "parallel", seed=0,
                      fm_options={"explode_switch": True})
        report = run_many([good, bad, good], workers=2)
        assert report.results[0] is not None
        assert report.results[2] is not None
        assert report.results[1] is None
        (failure,) = report.failures
        assert failure.index == 1
        assert failure.job is bad or failure.job == bad
        assert "explode_switch" in failure.error
        assert "Traceback" in failure.traceback

    def test_raise_if_failed_names_the_job(self):
        bad = _change("bogus", "parallel")
        with pytest.raises(SweepError, match="bogus"):
            run_many([bad], workers=1).raise_if_failed()

    def test_run_sweep_raises_on_failure(self):
        bad = _change(make_mesh(2, 2), "parallel",
                      fm_options={"explode_switch": True})
        with pytest.raises(SweepError):
            run_sweep([bad, _change(make_mesh(2, 2), "parallel")],
                      workers=2)


class TestFallbacks:
    def test_workers_one_runs_in_process(self, monkeypatch):
        def no_pool():
            raise AssertionError("workers=1 must not build a pool")

        monkeypatch.setattr(executor_module, "_pool_context", no_pool)
        report = run_many([_change(make_mesh(2, 2), "parallel")],
                          workers=1)
        assert not report.failures
        assert report.workers == 1

    def test_degrades_when_no_start_method(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_pool_context", lambda: None)
        jobs = [_change(make_mesh(2, 2), "parallel", seed=s)
                for s in range(2)]
        report = run_many(jobs, workers=4)
        assert report.workers == 1
        assert not report.failures
        baseline = run_many(jobs, workers=1)
        for a, b in zip(baseline.results, report.results):
            assert _fingerprint(a) == _fingerprint(b)

    def test_workers_clamped_to_job_count(self):
        report = run_many([_change(make_mesh(2, 2), "parallel")],
                          workers=16)
        assert report.workers == 1
        assert not report.failures


class TestReporting:
    def test_progress_callback_and_summary(self):
        seen = []
        jobs = [_change(make_mesh(2, 2), "parallel", seed=s)
                for s in range(2)]
        report = run_many(jobs, workers=1,
                          progress=lambda done, job, failure, duration:
                          seen.append((done, job.describe(), failure)))
        assert [done for done, _, _ in seen] == [1, 2]
        assert all(failure is None for _, _, failure in seen)
        summary = report.summary()
        assert "2 runs" in summary and "speedup" in summary
        assert report.wall_time > 0
        assert report.run_time > 0

    def test_progress_true_writes_eta_lines(self):
        import io

        stream = io.StringIO()
        run_many([_change(make_mesh(2, 2), "parallel")],
                 workers=1, progress=True, stream=stream)
        text = stream.getvalue()
        assert "[1/1]" in text and "eta" in text
        assert "runs (0 failed)" in text

    def test_job_describe_mentions_identity(self):
        job = _change(make_mesh(2, 2), "serial_device", seed=7,
                      change="add_switch")
        text = job.describe()
        assert "2x2 mesh" in text
        assert "serial_device" in text
        assert "seed=7" in text
        assert "add_switch" in text
