"""The simulation environment: clock, event heap, and run loop."""

from __future__ import annotations

import gc
from _thread import allocate_lock  # ``threading``'s Lock, minus its import
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, List, Union

from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import Deferred, Event, NORMAL, PENDING, URGENT

Infinity = float("inf")

#: Lazy cancellation leaves tombstones on the heap; once more than this
#: many accumulate *and* they outnumber live entries, the heap is
#: rebuilt without them so its size stays bounded under churn.
COMPACT_THRESHOLD = 64

#: CPython's cyclic collector runs a young collection every this many
#: net tracked allocations while :meth:`Environment.run` dispatches
#: (the interpreter's default is 700).  A run makes no reference
#: cycles: the collections during runs of every scenario kind found
#: nothing to free (``tests/test_cost_ledger.py`` checks each run), yet
#: at 700 the collector took 11.9% of a fattree2-1024 discovery and 19%
#: of a 10k Swapped Dragonfly one, mostly in the middle and full
#: collections that re-walk the whole fabric.  In alternating reps of
#: the former, 100,000 removed 9.9% of its wall time and 20,000 only
#: 7.2%; switching the collector off removed 10.7% but would leave a
#: leak unbounded.
GC_YOUNG_THRESHOLD = 100_000


class Hold:
    """A process-wide interpreter setting, changed while at least one
    holder runs and given back when the last one ends.

    ``Hold(read, write, held)``: :meth:`enter` writes ``held(found)``,
    where ``found`` is what ``read()`` returned before any holder
    began; the :meth:`exit` that ends the last holder writes ``found``
    back.  Holders may nest and overlap across threads: the lock makes
    read-note-write and pop-restore one step each.
    """

    def __init__(self, read, write, held):
        self._read, self._write, self._held = read, write, held
        #: What each holder found, oldest first.
        self._found: list = []
        self._lock = allocate_lock()

    def enter(self) -> None:
        with self._lock:
            self._found.append(self._read())
            self._write(self._held(self._found[0]))

    def exit(self) -> None:
        with self._lock:
            found = self._found.pop()
            if not self._found:
                self._write(found)


#: The collector's thresholds while any :meth:`Environment.run` runs:
#: the young trigger raised to :data:`GC_YOUNG_THRESHOLD`, never
#: lowered; a disabled collector's are left as they are.
_COLLECTOR = Hold(gc.get_threshold, lambda held: gc.set_threshold(*held),
                  lambda found: (max(found[0], GC_YOUNG_THRESHOLD),)
                  + found[1:] if gc.isenabled() else found)


class Environment:
    """A discrete-event simulation environment.

    Maintains the simulation clock and a priority heap of triggered
    events.  Entities interact with the environment through
    :meth:`call_later`, :meth:`schedule_callback`, :meth:`event` and
    :meth:`run`: every model is a chain of callbacks.  :meth:`process`
    and :meth:`timeout` remain for the kernel probes of the benchmark's
    ``layer_probes`` workload (``perf/workloads.py``), which drive
    generators; no model uses them.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds).
    """

    __slots__ = ("now", "_queue", "_eid", "_tombstones", "_seq", "_urgent",
                 "_slot", "_dispatching", "_executed", "_high_water",
                 "_compactions", "reserve")

    def __init__(self, initial_time: float = 0.0):
        #: Current simulation time in seconds: a plain slot, read on
        #: every hop and written only by :meth:`run` / :meth:`step`.
        self.now: float = float(initial_time)
        #: Heap entries are five wide: ``(time, priority, seq, event,
        #: None)``, or ``(time, NORMAL, seq, fn, args)`` for an
        #: argument entry (:meth:`call_later`), which the run loop
        #: dispatches as ``fn(*args)``.
        self._queue: List[tuple] = []
        self._eid = count()
        #: ``reserve() -> int``: draw the sequence number a push at this
        #: point would get, without pushing (see "deferred
        #: materialisation" below).  Bound straight to the counter: it
        #: is called for every elided event.
        self.reserve: Callable[[], int] = self._eid.__next__
        #: Cancelled-but-not-yet-popped entries still on the heap.
        self._tombstones: int = 0
        #: Sequence number of the last NORMAL entry popped at the
        #: current instant (-1: none yet) — see :meth:`has_passed`.
        self._seq: int = -1
        #: ``(time, seq)`` of the last URGENT event entry popped, or of
        #: the drain (its time and the last number drawn): no URGENT
        #: slot up to it is still due — see :meth:`has_passed`.
        self._urgent: tuple = (-Infinity, -1)
        #: The last slot :meth:`reserve_urgent` handed out (see
        #: :meth:`quiet`).
        self._slot: tuple = (-Infinity, -1, -1)
        #: True while :meth:`run` / :meth:`step` is executing callbacks.
        self._dispatching: bool = False
        #: Vitals (see :meth:`vitals`).
        self._executed: int = 0
        self._high_water: int = 0
        self._compactions: int = 0

    # -- event creation ----------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds with ``value`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(None)  # triggered already: it needs no env
        event._value = value
        heappush(self._queue,
                 (self.now + delay, NORMAL, next(self._eid), event, None))
        return event

    def process(self, generator: Generator) -> Event:
        """Drive ``generator`` from callbacks: it starts in an URGENT slot
        now, each ``yield <event>`` resumes it with that event's value
        once the event is processed, and the returned event succeeds
        with its return value.  An exception it raises propagates out
        of :meth:`run` at once; yielding a non-event raises
        :class:`SimulationError`.
        """
        if not hasattr(generator, "send"):
            raise ValueError(f"{generator!r} is not a generator")
        done, send = Event(self), generator.send

        def resume(event) -> None:
            value = event._value
            while True:
                try:
                    event = send(value)
                except StopIteration as stop:
                    done.succeed(stop.value)
                    return
                if not isinstance(event, Event):
                    raise SimulationError(
                        f"process yielded non-event {event!r}")
                if event.callbacks is not None:
                    event.callbacks.append(resume)
                    return
                value = event._value

        self.schedule_callback(0.0, resume, URGENT)
        return done

    # -- scheduling ----------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., None],
                   *args) -> None:
        """Run ``fn(*args)`` after ``delay``: the per-packet timer.

        The heap entry carries the arguments itself — no event object,
        no callbacks list, nothing to cancel — and occupies the slot a
        :meth:`timeout` created at this point would (NORMAL priority,
        same sequence number).
        """
        heappush(
            self._queue,
            (self.now + delay, NORMAL, next(self._eid), fn, args),
        )

    def schedule_callback(self, delay: float, fn: Callable[[Event], None],
                          priority: int = NORMAL) -> Deferred:
        """A cancellable timer: run ``fn(handle)`` after ``delay``.

        Equivalent to ``self.timeout(delay).callbacks.append(fn)`` but
        skips :class:`~repro.sim.events.Event` construction — the
        returned :class:`~repro.sim.events.Deferred` carries exactly the
        state :meth:`step` needs.  It occupies the same scheduling slot
        that timeout would (same priority, same sequence number), so
        event ordering is unchanged.  The handle can be passed to
        :meth:`cancel`; it cannot be yielded on by a process.  A timer
        nobody cancels is a :meth:`call_later`.
        """
        handle = Deferred(fn)
        heappush(
            self._queue,
            (self.now + delay, priority, next(self._eid), handle, None),
        )
        return handle

    # -- deferred materialisation ----------------------------------------
    # A caller whose timer would do nothing unless something else
    # happens first (a port's serialization-done timer with an empty
    # queue, a credit return to a sender with nothing to send) can
    # *reserve* the timer's heap slot instead of pushing it, and push
    # it later only if it turns out to matter.  ``reserve()`` and the
    # methods below make that order-exact: the late push lands exactly
    # where the eager one would have, ties at equal timestamps included.
    # A zero-delay URGENT slot is reserved with ``reserve_urgent()``
    # and pushed with ``schedule_urgent``.

    def schedule_at(self, time: float, seq: int, fn: Callable[..., None],
                    *args) -> None:
        """Push ``fn(*args)`` at absolute ``time`` under a reserved
        ``seq`` (an argument entry, like :meth:`call_later`'s).

        Raises :class:`SimulationError` once ``has_passed(time, seq)``:
        the entry would run out of order (or move the clock back).
        """
        if self.has_passed(time, seq):
            raise SimulationError(
                f"slot ({time}, {seq}) has already passed at {self.now}"
            )
        heappush(self._queue, (time, NORMAL, seq, fn, args))

    def reserve_urgent(self) -> tuple:
        """Reserve a zero-delay URGENT slot without pushing it: the
        ``(time, seq, mark)`` that :meth:`has_passed` and
        :meth:`schedule_urgent` take (``mark`` notes which NORMAL entry
        had run last when the slot was drawn)."""
        slot = self._slot = (self.now, next(self._eid), self._seq)
        return slot

    def schedule_urgent(self, slot: tuple,
                        fn: Callable[[Deferred], None]) -> None:
        """Push ``fn(handle)`` into a slot :meth:`reserve_urgent` drew;
        :class:`SimulationError` once it has passed."""
        if self.has_passed(*slot):
            raise SimulationError(f"slot {slot} has already passed")
        heappush(self._queue, (slot[0], URGENT, slot[1], Deferred(fn), None))

    def has_passed(self, time: float, seq: int, mark: int = None) -> bool:
        """Whether a NORMAL entry ``(time, seq)`` — or, given the
        ``mark`` of :meth:`reserve_urgent`, the URGENT one — would
        already have run.

        Exact at equal timestamps.  Among same-instant NORMAL entries
        the heap pops in sequence order, so the entry has run iff a
        later-numbered one has been popped at this instant.  An URGENT
        slot drawn at this instant sorts ahead of every NORMAL entry
        still due, so it has run once a NORMAL entry has been popped
        since it was drawn (the last one popped is no longer ``mark``),
        once a later-numbered URGENT one has, or once the heap drained.
        """
        if mark is None:
            return time < self.now or (time == self.now and seq < self._seq)
        return time < self.now or (time == self.now and (
            mark != self._seq or self._urgent >= (time, seq)))

    def quiet(self) -> bool:
        """True when a zero-delay callback scheduled now would be the
        very next pop — no other heap entry at the current instant, nor
        a reserved URGENT slot still due — so a handler may run it
        inline instead.  Never true outside event dispatch: code
        between runs is not a handler, and what it schedules must wait
        for the run.
        """
        queue, now, slot = self._queue, self.now, self._slot
        return self._dispatching and (not queue or queue[0][0] > now) and (
            slot[0] != now or self.has_passed(*slot))

    def vitals(self) -> dict:
        """Snapshot of the kernel's own counters.

        ``events_executed`` counts callbacks-run heap entries;
        ``sequence_numbers_drawn`` also includes cancelled entries and
        numbers reserved but never pushed, so it over-counts work done.
        ``run`` keeps its counts in loop locals and stores them on
        exit; inside a callback of a ``run`` in progress the executed
        count and high-water mark are those at the start of that run.
        ``run`` samples the heap depth every 64th event (``step``: every
        event), so a peak shorter than that can escape
        ``heap_high_water``.
        """
        return {
            "events_executed": self._executed,
            # ``count`` has no peek; its repr is ``count(n)``.
            "sequence_numbers_drawn": int(repr(self._eid)[6:-1]),
            "heap_depth": len(self._queue) - self._tombstones,
            "heap_high_water": max(self._high_water, len(self._queue)),
            "tombstones": self._tombstones,
            "compactions": self._compactions,
        }

    def _drained(self) -> None:
        """The heap ran dry: every slot drawn so far has passed."""
        self._urgent = (self.now, int(repr(self._eid)[6:-1]) - 1)

    def cancel(self, event: Event) -> bool:
        """Cancel a scheduled-but-unprocessed event.

        The event's callbacks never run.  Returns ``True`` if the event
        was scheduled (and is now cancelled); ``False`` if it was never
        scheduled, has already been processed, or was already cancelled.

        Cancellation is lazy: the entry stays on the heap as a
        tombstone that :meth:`step` discards at pop, making ``cancel``
        O(1) instead of an O(n) heap rebuild.  Tombstones are compacted
        away once they outnumber live entries, so heap size stays
        bounded under repeated schedule/cancel churn.
        """
        if (
            event._cancelled
            or event.callbacks is None
            or event._value is PENDING
        ):
            return False
        event._cancelled = True
        self._tombstones += 1
        if (
            self._tombstones > COMPACT_THRESHOLD
            and self._tombstones * 2 > len(self._queue)
        ):
            # In place: ``run`` holds a local alias of the heap list.
            self._queue[:] = [
                entry for entry in self._queue
                if entry[4] is not None or not entry[3]._cancelled
            ]
            heapify(self._queue)
            self._tombstones = 0
            self._compactions += 1
        return True

    def peek(self) -> float:
        """Time of the next scheduled live event (``inf`` if none)."""
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[4] is not None or not entry[3]._cancelled:
                return entry[0]
            heappop(queue)
            self._tombstones -= 1
        return Infinity

    def step(self) -> None:
        """Process the next event on the heap.

        Raises
        ------
        EmptySchedule
            If no live events remain.
        """
        queue = self._queue
        if len(queue) > self._high_water:
            self._high_water = len(queue)
        while True:
            if not queue:
                self._drained()
                raise EmptySchedule("no scheduled events")
            now, priority, seq, event, args = heappop(queue)
            if args is not None or not event._cancelled:
                break
            # Tombstone: discard without touching the clock.
            self._tombstones -= 1
        if priority:
            self._seq = seq
        else:
            if now != self.now:
                self._seq = -1
            self._urgent = (now, seq)
        self.now = now
        self._executed += 1

        self._dispatching = True
        try:
            if args is not None:
                event(*args)
                return
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
        finally:
            self._dispatching = False

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the heap is exhausted;
            a number — run until that simulation time;
            an :class:`Event` — run until that event is processed and
            return its value.

        While it dispatches, the cyclic collector's young trigger is
        :data:`GC_YOUNG_THRESHOLD`; the caller's thresholds are back
        when the outermost run in the process returns or raises.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self.now:
                raise ValueError(f"until ({at}) must be in the future")
            until = Event(None)
            until._value = None
            # ``now + (at - now)``, not ``at``: the two can differ in
            # the last bit, and every pinned run stops at the former.
            heappush(self._queue, (self.now + (at - self.now), URGENT,
                                   next(self._eid), until, None))

        if isinstance(until, Event):
            if until.callbacks is None:
                return until._value if until._value is not PENDING else None
            until.callbacks.append(_stop_simulate)

        # The dispatch loop is ``step()`` unrolled with the heap and
        # heappop bound to locals: one method call plus two global
        # lookups saved per event is a measurable fraction of kernel
        # time at millions of events per run.  ``cancel`` compacts the
        # heap in place, so the local alias stays valid.
        # The vitals are counted in locals too and stored on exit: one
        # add and one mask test per event, the heap depth sampled every
        # 64th (``len`` per event is a call the loop can do without).
        queue = self._queue
        pop = heappop
        executed = 0
        high = self._high_water
        _COLLECTOR.enter()
        self._dispatching = True
        try:
            while True:
                if not executed & 63 and len(queue) > high:
                    high = len(queue)
                try:
                    now, priority, seq, event, args = pop(queue)
                except IndexError:
                    raise EmptySchedule("no scheduled events") from None
                if args is not None:
                    # Argument entry: always NORMAL, never cancelled.
                    self._seq = seq
                    self.now = now
                    executed += 1
                    event(*args)
                    continue
                if event._cancelled:
                    # Tombstone: discard without touching the clock.
                    self._tombstones -= 1
                    continue
                if priority:
                    self._seq = seq
                else:
                    if now != self.now:
                        self._seq = -1
                    self._urgent = (now, seq)
                self.now = now
                executed += 1

                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
        except StopSimulation as exc:
            return exc.value
        except EmptySchedule:
            self._drained()
            if isinstance(until, Event) and until._value is PENDING:
                raise SimulationError(
                    "no scheduled events left but 'until' event was not triggered"
                ) from None
        finally:
            _COLLECTOR.exit()
            self._dispatching = False
            self._executed += executed
            self._high_water = high
        return None


def _stop_simulate(event: Event) -> None:
    """Callback used by :meth:`Environment.run` to halt the loop."""
    raise StopSimulation(event._value)
