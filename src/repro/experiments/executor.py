"""Process-parallel execution of independent experiment runs.

The paper's evaluation is a large sweep of independent ``(topology,
algorithm, seed, change)`` simulations.  Every run owns its own
:class:`~repro.sim.core.Environment`, so the sweep is embarrassingly
parallel.  This module fans runs out over a :mod:`multiprocessing`
pool while keeping the results element-for-element identical to a
serial sweep:

* a job is a :class:`~repro.experiments.scenario.Scenario` — a frozen
  *description* (topology name or document, algorithm, seed, ...), so
  it is spawn-safe and no live simulator object crosses the process
  boundary;
* each run derives all randomness from its own scenario seed, so
  worker scheduling cannot perturb outcomes;
* results are reordered back into job-submission order;
* a failing run is captured as a :class:`RunFailure` carrying the
  originating job instead of poisoning the whole sweep;
* ``workers=1`` (or a platform without a usable start method) degrades
  to plain in-process execution.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from .scenario import Scenario

#: Start methods tried for the worker pool, cheapest first.
_START_METHODS = ("fork", "spawn", "forkserver")


# -- outcomes -----------------------------------------------------------------

@dataclass
class RunFailure:
    """A run that raised, with enough context to reproduce it."""

    job: Scenario
    index: int
    error: str
    traceback: str

    def __str__(self):
        return f"job[{self.index}] {self.job.describe()}: {self.error}"


class SweepError(RuntimeError):
    """One or more runs of a sweep failed."""

    def __init__(self, failures: Sequence[RunFailure]):
        self.failures = list(failures)
        lines = [f"{len(self.failures)} run(s) failed:"]
        lines += [f"  {failure}" for failure in self.failures]
        super().__init__("\n".join(lines))


@dataclass
class SweepReport:
    """Everything :func:`run_many` measured about a sweep.

    ``results`` is aligned with the submitted job list (``None`` where
    the run failed); ``run_time`` is the summed per-run wall time — the
    serial-execution estimate the speedup is computed against.
    """

    jobs: List[Scenario]
    results: List[Any]
    failures: List[RunFailure] = field(default_factory=list)
    workers: int = 1
    wall_time: float = 0.0
    run_time: float = 0.0

    @property
    def speedup(self) -> float:
        """Estimated speedup versus running the same jobs serially."""
        if self.wall_time <= 0:
            return 1.0
        return self.run_time / self.wall_time

    def raise_if_failed(self) -> "SweepReport":
        if self.failures:
            raise SweepError(self.failures)
        return self

    def summary(self) -> str:
        return (
            f"{len(self.jobs)} runs ({len(self.failures)} failed) on "
            f"{self.workers} worker(s) in {self.wall_time:.2f} s wall "
            f"(serial estimate {self.run_time:.2f} s, "
            f"speedup {self.speedup:.2f}x)"
        )


# -- worker side --------------------------------------------------------------

def _run_indexed(indexed):
    """Pool entry point: never raises, so one bad run cannot kill the
    sweep; failures travel back as picklable strings."""
    index, job = indexed
    started = time.perf_counter()
    try:
        result = job.run()
        return index, result, None, time.perf_counter() - started
    except Exception as exc:
        import traceback  # only a failed job pays for it
        failure = RunFailure(
            job=job, index=index,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
        return index, None, failure, time.perf_counter() - started


# -- pool management ----------------------------------------------------------

def _pool_context():
    """A usable multiprocessing context, or ``None`` to run in-process."""
    # Imported where the pool is made: only a ``jobs > 1`` sweep pays
    # for it (and for ``socket`` and the pickling machinery behind it).
    import multiprocessing
    for method in _START_METHODS:
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return None


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    return f"{seconds // 60}:{seconds % 60:02d}"


def _progress_printer(total: int, stream) -> Callable:
    started = time.perf_counter()

    def emit(done: int, job: Scenario, failure: Optional[RunFailure],
             duration: float) -> None:
        elapsed = time.perf_counter() - started
        eta = elapsed / done * (total - done)
        status = "FAIL" if failure else "ok"
        print(
            f"[{done}/{total}] {job.describe()}: {status} "
            f"({duration:.2f} s)  elapsed {elapsed:.1f} s  "
            f"eta {_format_eta(eta)}",
            file=stream,
        )

    return emit


# -- the executor -------------------------------------------------------------

def run_many(
    jobs: Iterable[Scenario],
    workers: int = 1,
    progress: Union[bool, Callable, None] = None,
    stream=None,
) -> SweepReport:
    """Execute independent experiment runs, possibly in parallel.

    Parameters
    ----------
    jobs:
        The scenarios to run.
    workers:
        Worker processes.  ``1`` runs in-process (no pool); higher
        values fan out over a :mod:`multiprocessing` pool, degrading to
        in-process execution if no start method is available.  Clamped
        to the number of jobs.
    progress:
        ``True`` — print per-run progress/ETA lines and a final
        wall-clock summary to ``stream``; a callable — invoked as
        ``progress(done, job, failure, duration)`` per finished run;
        ``False`` — silent; ``None`` (default) — auto: report only
        when ``stream`` is an interactive terminal and there is more
        than one job.
    stream:
        Where progress reporting goes (default ``sys.stderr``).

    Returns
    -------
    SweepReport
        Results in job-submission order — identical, element for
        element, to a ``workers=1`` run of the same jobs.
    """
    jobs = list(jobs)
    stream = stream if stream is not None else sys.stderr
    if progress is None:
        progress = len(jobs) > 1 and bool(
            getattr(stream, "isatty", lambda: False)()
        )
    emit: Optional[Callable] = None
    if progress is True:
        emit = _progress_printer(len(jobs), stream)
    elif callable(progress):
        emit = progress

    workers = max(1, min(int(workers), len(jobs) or 1))
    context = _pool_context() if workers > 1 else None
    if context is None:
        workers = 1

    started = time.perf_counter()
    results: List[Any] = [None] * len(jobs)
    failures: List[RunFailure] = []
    run_time = 0.0
    done = 0

    def consume(outcome) -> None:
        nonlocal run_time, done
        index, result, failure, duration = outcome
        run_time += duration
        done += 1
        if failure is None:
            results[index] = result
        else:
            failures.append(failure)
        if emit is not None:
            emit(done, jobs[index], failure, duration)

    if workers == 1:
        for indexed in enumerate(jobs):
            consume(_run_indexed(indexed))
    else:
        pool = context.Pool(processes=workers)
        try:
            for outcome in pool.imap_unordered(
                _run_indexed, list(enumerate(jobs))
            ):
                consume(outcome)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()

    failures.sort(key=lambda failure: failure.index)
    report = SweepReport(
        jobs=jobs, results=results, failures=failures, workers=workers,
        wall_time=time.perf_counter() - started, run_time=run_time,
    )
    if progress is True:
        print(report.summary(), file=stream)
    return report


def run_sweep(
    jobs: Iterable[Scenario],
    workers: int = 1,
    progress: Union[bool, Callable, None] = None,
) -> List[Any]:
    """`run_many` + `raise_if_failed`: the common sweep shape."""
    return run_many(jobs, workers=workers,
                    progress=progress).raise_if_failed().results
