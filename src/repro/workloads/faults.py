"""Fault injection: randomized topology churn over time.

The paper studies one change per run; a production fabric sees many.
This workload drives a fabric through a seeded sequence of hot switch
removals, restorations, and link flaps, so soak tests and the
continuous-operation example can check that the management layer keeps
converging to the true topology change after change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from ..fabric.fabric import Fabric
from ..sim.events import Event

#: Fault kinds the log can record.  The random schedule draws only the
#: first four; the FM kinds are logged by :meth:`FaultInjector.kill_fm_now`
#: and :meth:`FaultInjector.restore_fm_now`, which a harness calls at a
#: chosen instant.
KINDS = ("remove_switch", "restore_switch", "fail_link", "restore_link",
         "kill_fm", "restart_fm")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-run inspection."""

    time: float
    kind: str
    target: str
    #: Whether the fault landed while the observed FM was mid-walk
    #: (always False without a ``fm`` reference).
    mid_discovery: bool = False


class FaultInjector:
    """Injects random topology changes at exponential intervals.

    Parameters
    ----------
    fabric:
        The live fabric to disturb.
    mean_interval:
        Mean seconds between faults (exponentially distributed); keep
        it comfortably above the fabric's assimilation time if each
        change should be absorbed before the next arrives — or well
        below it (plus ``during_discovery``) to study mid-discovery
        churn.
    protect:
        Device names never to remove; links adjacent to a protected
        device are never failed either, so churn cannot amputate it.
        Protecting an *endpoint* (e.g. the FM host) extends the shield
        to its attachment switches — the one fault class that could
        silently cut the FM off.  Endpoints are never targeted.
    seed:
        Randomness seed (the full fault schedule is reproducible).
    fm:
        Fabric manager to observe for ``during_discovery`` mode (and
        for the ``mid_discovery`` flag on logged faults).
    during_discovery:
        Chaos mode: after each inter-fault interval elapses, hold the
        fault until the observed FM is mid-walk (checked every
        ``poll_interval``), so changes land *while* discovery runs —
        the overlap case the paper's one-change protocol never
        exercises.  If no discovery starts within ``max_hold`` the
        fault fires anyway (a fault is itself what provokes the next
        discovery, so the first one may have to land on a quiet
        fabric).
    poll_interval:
        Busy-poll granularity of ``during_discovery`` (default:
        ``mean_interval / 8``).
    max_hold:
        Longest a fault is held waiting for a discovery (default:
        ``20 * mean_interval``).
    """

    def __init__(self, fabric: Fabric, mean_interval: float = 30e-3,
                 protect: Optional[Sequence[str]] = None,
                 seed: int = 0, fm=None,
                 during_discovery: bool = False,
                 poll_interval: Optional[float] = None,
                 max_hold: Optional[float] = None):
        if mean_interval <= 0:
            raise ValueError("mean interval must be positive")
        if during_discovery and fm is None:
            raise ValueError("during_discovery mode needs an fm to observe")
        self.fabric = fabric
        self.env = fabric.env
        self.mean_interval = mean_interval
        self.protect: Set[str] = self._expand_protection(fabric, protect)
        self.rng = random.Random(seed)
        self.fm = fm
        self.during_discovery = during_discovery
        self.poll_interval = (
            poll_interval if poll_interval is not None
            else mean_interval / 8
        )
        self.max_hold = (
            max_hold if max_hold is not None else 20 * mean_interval
        )
        if self.poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        #: Whether the FM host is currently hot-removed by this injector.
        self.fm_down = False
        #: Called with each :class:`FaultEvent` as it lands — the
        #: failover harness hooks this to stamp the standby's
        #: detection-latency clock the instant the primary dies.
        self.on_fault: Optional[callable] = None
        self.log: List[FaultEvent] = []
        #: Faults that fired while the FM was mid-walk.
        self.mid_discovery_faults = 0
        self._removed: List[str] = []
        self._failed_links: List[tuple] = []
        self._proc = None
        self._stopping = False
        self._done: Optional[Event] = None
        #: The Timeout the injector loop is currently sleeping on.
        self._wait = None

    @staticmethod
    def _expand_protection(fabric: Fabric,
                           protect: Optional[Sequence[str]]) -> Set[str]:
        """Protected set, widened so the shield actually holds.

        A protected endpoint's attachment switches are protected too:
        failing such a switch (or the link to it) would amputate the
        endpoint exactly as removing it would — the scenario ``protect``
        exists to prevent (the FM host must survive the soak).
        """
        expanded: Set[str] = set(protect or ())
        for name in sorted(expanded):
            device = fabric.devices.get(name)
            if device is None or device.kind == "switch":
                continue
            for port in device.ports:
                neighbor = port.neighbor()
                if neighbor is not None:
                    expanded.add(neighbor.device.name)
        return expanded

    # -- schedule -----------------------------------------------------------
    def run(self, faults: int) -> Event:
        """Inject ``faults`` changes; the event triggers when done."""
        if self._proc is not None:
            raise RuntimeError("fault injector already running")
        self._done = self.env.event()
        self._proc = self.env.process(self._loop(faults, self._done),
                                      name="fault-injector")
        return self._done

    def _loop(self, faults: int, done: Event):
        for _ in range(faults):
            self._wait = self.env.timeout(
                self.rng.expovariate(1.0 / self.mean_interval)
            )
            yield self._wait
            self._wait = None
            if self._stopping:
                break
            if self.during_discovery and not self.fm.busy:
                # Hold the fault until the FM is mid-walk, bounded by
                # an env-time deadline so a quiet fabric cannot stall
                # the schedule forever.  Measuring against env.now
                # (rather than tallying poll_interval per wait) honors
                # max_hold exactly even when a wait completes early or
                # is interrupted.
                deadline = self.env.now + self.max_hold
                while self.env.now < deadline and not self.fm.busy:
                    self._wait = self.env.timeout(
                        min(self.poll_interval, deadline - self.env.now)
                    )
                    yield self._wait
                    self._wait = None
                    if self._stopping:
                        break
                if self._stopping:
                    break
            self._inject_one()
        if not done.triggered:
            done.succeed(list(self.log))

    def stop(self) -> None:
        """Stop injecting *now*.

        The pending inter-fault timeout is cancelled (the loop would
        otherwise sleep through one more interval before noticing) and
        the ``run`` event succeeds immediately with the partial log.
        """
        self._stopping = True
        if self._wait is not None and not self._wait.triggered:
            # The loop generator stays suspended on the cancelled
            # event forever; that is fine — it holds no simulation
            # resources and schedules nothing further.
            self.env.cancel(self._wait)
            self._wait = None
        if self._done is not None and not self._done.triggered:
            self._done.succeed(list(self.log))

    # -- fault selection --------------------------------------------------------
    def _eligible_switches(self) -> List[str]:
        return sorted(
            sw.name for sw in self.fabric.switches()
            if sw.active and sw.name not in self.protect
        )

    def _healthy_links(self) -> List[tuple]:
        result = []
        for link in self.fabric.links:
            if not link.up:
                continue
            a = link.a_port.device
            b = link.b_port.device
            # Endpoint attachment links stay up (killing one would
            # permanently silence an endpoint; switch faults cover
            # connectivity loss already).
            if a.kind != "switch" or b.kind != "switch":
                continue
            if a.name in self.protect or b.name in self.protect:
                continue
            result.append((a.name, b.name))
        return sorted(result)

    def _fm_host(self) -> str:
        return self.fm.endpoint.name

    def _inject_one(self) -> None:
        actions = []
        if self._eligible_switches():
            actions.append("remove_switch")
        if self._removed:
            actions.append("restore_switch")
        if self._healthy_links():
            actions.append("fail_link")
        if self._failed_links:
            actions.append("restore_link")
        if not actions:
            return
        kind = self.rng.choice(actions)
        if kind == "remove_switch":
            target = self.rng.choice(self._eligible_switches())
            self.fabric.remove_device(target)
            self._removed.append(target)
        elif kind == "restore_switch":
            target = self._removed.pop(
                self.rng.randrange(len(self._removed))
            )
            self.fabric.restore_device(target)
        elif kind == "fail_link":
            a, b = self.rng.choice(self._healthy_links())
            self.fabric.fail_link(a, b)
            self._failed_links.append((a, b))
            target = f"{a}<->{b}"
        else:
            a, b = self._failed_links.pop(
                self.rng.randrange(len(self._failed_links))
            )
            self.fabric.restore_link(a, b)
            target = f"{a}<->{b}"
        self._log(kind, target)

    def _log(self, kind: str, target: str) -> None:
        mid = self.fm is not None and not self.fm_down and self.fm.busy
        if mid:
            self.mid_discovery_faults += 1
        event = FaultEvent(self.env.now, kind, target, mid_discovery=mid)
        self.log.append(event)
        if self.on_fault is not None:
            self.on_fault(event)

    # -- FM faults --------------------------------------------------------------
    def kill_fm_now(self) -> None:
        """Hot-remove the FM's host endpoint, deterministically.

        For harnesses that want the kill at a precise point in the
        schedule (no RNG draw); a second call while the FM is down is a
        no-op.
        """
        if self.fm is None:
            raise ValueError("no fm to kill")
        if self.fm_down:
            return
        # Mid-walk flag is sampled before the kill lands (the whole
        # point of killing mid-discovery is that the FM *was* busy).
        mid = self.fm.busy
        self.fm_down = True
        self.fabric.remove_device(self._fm_host())
        if mid:
            self.mid_discovery_faults += 1
        event = FaultEvent(self.env.now, "kill_fm", self._fm_host(),
                           mid_discovery=mid)
        self.log.append(event)
        if self.on_fault is not None:
            self.on_fault(event)

    def restore_fm_now(self) -> None:
        """Resurrect a killed FM host (the split-brain provocation).

        Power restoration fires the neighbours' port-up events; the old
        primary's own management entity comes back and — unless it has
        been demoted by fencing — will start rediscovering as if it
        still owned the fabric.
        """
        if not self.fm_down:
            return
        self.fm_down = False
        self.fabric.restore_device(self._fm_host())
        # A rebooted manager walks the fabric on startup — it cannot
        # know it was deposed while dark (its own database still calls
        # its ports "up", so the resurrection's port events alone look
        # stale to it).  The walk ends in the ownership-fencing pass,
        # which is where a fenced fabric makes it demote itself.
        if not getattr(self.fm, "demoted", False):
            self.fm.start_discovery(trigger="restart", force=True)
        self._log("restart_fm", self._fm_host())

    # -- introspection ----------------------------------------------------------
    def summary(self) -> dict:
        counts = {}
        for event in self.log:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
