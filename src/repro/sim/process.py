"""Generator-based processes for the discrete-event kernel.

A *process* wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` instances; the process suspends until
the yielded event is processed, at which point the event's value is sent
back into the generator (or its exception is thrown into it).
"""

from __future__ import annotations

from typing import Generator, Optional

from .errors import SimulationError
from .events import Event, Initialize, PENDING


class Process(Event):
    """The execution of a generator inside an environment.

    A process is itself an event: it triggers with the generator's
    return value when the generator exits, or with the exception that
    escaped it.  Other processes can therefore ``yield`` a process to
    wait for its completion.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Process {self.name} ({'alive' if self.is_alive else 'dead'})>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return self._value is PENDING

    # -- kernel interface -------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value/exception of ``event``."""
        env = self.env
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # Mark handled; the generator may re-raise.
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                # Generator finished: the process event succeeds.
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                self._ok = False
                self._value = error
                env.schedule(self)
                return

            if next_event.callbacks is not None:
                # Event not yet processed: register and suspend.
                next_event.callbacks.append(self._resume)
                return

            # Event already processed; continue immediately with its value.
            event = next_event
