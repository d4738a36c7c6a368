"""The simulation driver: one thread owns the kernel, everyone else asks.

The event kernel (:class:`~repro.sim.core.Environment`) is strictly
single-threaded — its heap, clock, and every fabric object are free of
locks by design, which is exactly what keeps batch runs bit-identical.
A serving daemon therefore may not let request handlers touch the
simulation directly.  :class:`SimulationDriver` enforces the split:

* the driver's thread is the *only* thread that ever advances the
  clock or reads fabric/FM state;
* clients :meth:`submit` closures; the driver executes them **between
  kernel events**, so every query and mutation observes (or produces)
  a consistent simulation state;
* the kernel advances in batches that end as soon as a command is
  queued (at the latest after :data:`BATCH` events), so a query waits
  for one kernel event even while a discovery storm keeps the heap
  full — and a flood of queries slows the kernel, never stops it: at
  least one event runs between two drains of the queue;
* when the heap drains (a quiescent fabric with no churn), the driver
  blocks on the command queue instead of spinning;
* everything a read can observe carries one monotone ``version``; a
  :meth:`~SimulationDriver.read` whose memo entry is of the current
  version is answered on the caller's thread, without the queue.

Determinism: the simulation itself stays deterministic — same event
order, same randomness — for a given sequence of submitted mutations
at given sim times.  What wall-clock serving adds is *when* a mutation
lands on the sim clock; see ``docs/SERVICE.md`` for the caveats.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional

from ..experiments.runner import SimulationSetup

Infinity = float("inf")

_ABSENT = object()

#: Kernel events after which a batch ends (and the version moves) even
#: though nobody asked anything: the bump cadence of an unobserved
#: kernel.  Not a latency knob — a queued command ends the batch.
BATCH = 128

#: Distinct reads memoised per version (further keys are computed on
#: every request, as all reads were before the memo).
MEMO_CAP = 64


class DriverStopped(RuntimeError):
    """Submitted to a driver that has stopped (or crashed)."""


class SimulationDriver:
    """Advance ``setup``'s simulation on a dedicated thread.

    Parameters
    ----------
    setup:
        A built simulation (:func:`~repro.experiments.runner.build_simulation`).
    injector:
        Optional running :class:`~repro.workloads.faults.FaultInjector`
        providing background churn; :meth:`stop` stops it first (its
        pending timers are cancelled via ``Environment.cancel``).
    """

    def __init__(self, setup: SimulationSetup, injector=None):
        self.setup = setup
        self.env = setup.env
        self.injector = injector
        #: Exception that killed the kernel, if any.  Reads are still
        #: answered; any other command then fails with
        #: :class:`DriverStopped`, since nothing it changes would ever
        #: be simulated.
        self.crashed: Optional[BaseException] = None
        #: Kernel events stepped by this driver (service metric), and
        #: the batches they ran in: events per batch falls below
        #: :data:`BATCH` as readers cut the kernel short.
        self.events_stepped = 0
        self.batches = 0
        #: Commands executed on the sim thread (service metric).
        self.commands_run = 0
        #: Bumped, on the sim thread only, wherever something a read
        #: can observe may have changed: after a batch that executed an
        #: event, before a non-read command runs, when the kernel dies.
        self.version = 0
        #: ``commands_run`` when ``version`` was last bumped — what read
        #: documents report, so equal versions mean equal documents.
        self.commands_at_version = 0
        #: Reads answered from the memo (counted on the callers'
        #: threads, hence the lock) / queued to the sim thread.
        self.memo_hits = 0
        self.memo_misses = 0
        self._hits_lock = threading.Lock()
        #: ``(version, {key: value})`` of the reads computed at that
        #: version; written on the sim thread only, and replaced (never
        #: cleared in place) once the version has moved.
        self._memo: tuple = (-1, {})
        #: ``(thread_time, process_time)`` read on the sim thread when
        #: the memo was last replaced: the CPU seconds ``metrics``
        #: reports, one value per version like every read document.
        self.cpu_at_version = (0.0, 0.0)
        self._commands: "queue.SimpleQueue" = queue.SimpleQueue()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "SimulationDriver":
        if self._thread is not None:
            raise RuntimeError("driver already started")
        self._thread = threading.Thread(
            target=self._loop, name="sim-driver", daemon=True,
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return (self._thread is not None and self._thread.is_alive()
                and not self._stop.is_set())

    def stop(self, timeout: float = 10.0) -> None:
        """Stop workloads, stop the loop, join the thread (idempotent)."""
        if self._thread is None or self._stop.is_set():
            self._stop.set()
            return
        for workload in (self.injector, getattr(self, "traffic", None)):
            if workload is None:
                continue
            try:
                self.call(lambda _setup, w=workload: w.stop(),
                          timeout=timeout)
            except (DriverStopped, TimeoutError):
                pass
        self._stop.set()
        self._commands.put(None)  # wake an idle loop
        self._thread.join(timeout)
        self._drain_rejected()

    # -- command plane -------------------------------------------------------
    def submit(self, fn: Callable[[SimulationSetup], object]) -> Future:
        """Run ``fn(setup)`` on the sim thread between kernel events.

        Returns a :class:`concurrent.futures.Future` with the result;
        exceptions raised by ``fn`` propagate through it.
        """
        return self._enqueue(fn, None)

    def call(self, fn: Callable[[SimulationSetup], object],
             timeout: float = 30.0):
        """Blocking :meth:`submit` (raises on timeout / fn error)."""
        return self.submit(fn).result(timeout)

    def read(self, key, fn: Callable[[SimulationSetup], object]) -> Future:
        """Future of ``fn(setup)``, a pure function of what the
        simulation looks like between two kernel events.

        If ``key`` was computed at the current :attr:`version` the
        future is already resolved, on the caller's thread: nothing has
        changed since, so the answer is the one a queued read would
        get (while a batch is in flight it is the state before that
        batch).  Otherwise the read is queued like a command — without
        bumping the version — and its value kept for the next caller.
        A read that raises is not kept.  ``key`` is any hashable
        but ``None``.
        """
        version, values = self._memo
        value = values.get(key, _ABSENT)
        if (value is not _ABSENT and version == self.version
                and not self._stop.is_set()):
            with self._hits_lock:
                self.memo_hits += 1
            future: Future = Future()
            future.set_result(value)
            return future
        return self._enqueue(fn, key)

    def _enqueue(self, fn, key) -> Future:
        future: Future = Future()
        if self._stop.is_set() or self._thread is None:
            future.set_exception(DriverStopped("driver is not running"))
            return future
        self._commands.put((fn, future, key))
        return future

    def _bump(self) -> None:
        self.version += 1
        self.commands_at_version = self.commands_run

    # -- loop ----------------------------------------------------------------
    def _loop(self) -> None:
        env = self.env
        # SimpleQueue.empty() takes no lock: cheap enough to ask after
        # every kernel event.
        nobody_waits = self._commands.empty
        while not self._stop.is_set():
            for item in self._pending():
                self._run_command(item)
            if self._stop.is_set():
                break
            if self.crashed is not None or env.peek() == Infinity:
                # Nothing to simulate: sleep until a command arrives
                # (stop() queues None to that end).
                self._run_command(self._commands.get())
                continue
            stepped = 0
            try:
                while True:
                    env.step()
                    stepped += 1
                    if (stepped == BATCH or not nobody_waits()
                            or env.peek() == Infinity):
                        break
            except BaseException as exc:  # kernel died: keep serving reads
                self._bump()
                self.crashed = exc
            if stepped:
                self.events_stepped += stepped
                self.batches += 1
                self._bump()
        self._drain_rejected()

    def _pending(self):
        """Queued items, until the queue is empty."""
        while True:
            try:
                yield self._commands.get_nowait()
            except queue.Empty:
                return

    def _run_command(self, item) -> None:
        if item is None:  # stop() wake-up sentinel
            return
        fn, future, key = item
        if not future.set_running_or_notify_cancel():
            return
        try:
            if key is None and self.crashed is not None:
                raise DriverStopped(f"kernel crashed: {self.crashed!r}")
            self.commands_run += 1
            if key is None:
                self._bump()
                value = fn(self.setup)
            else:
                value = self._read_now(key, fn)
            future.set_result(value)
        except BaseException as exc:
            future.set_exception(exc)

    def _read_now(self, key, fn):
        """Sim thread: the memo's value for ``key``, computed unless
        another caller's queued read already did at this version."""
        self.memo_misses += 1
        version, values = self._memo
        if version != self.version:
            values = {}
            self._memo = (self.version, values)
            self.cpu_at_version = (time.thread_time(), time.process_time())
        value = values.get(key, _ABSENT)
        if value is _ABSENT:
            value = fn(self.setup)
            if len(values) < MEMO_CAP:
                values[key] = value
        return value

    def _drain_rejected(self) -> None:
        """Fail any commands left behind after the loop exits."""
        for item in self._pending():
            if item is not None and item[1].set_running_or_notify_cancel():
                item[1].set_exception(DriverStopped("driver stopped"))
