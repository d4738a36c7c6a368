"""The data-plane traffic engine: configurable application flows.

The paper's results "have been obtained without considering application
traffic into the network.  This traffic scarcely influences on the
discovery time.  The reason is that, in ASI, the management and
notification packets have the higher priority when they are transmitted
through the fabric." (section 4.1)

This workload lets us *test* that claim instead of assuming it.  A
:class:`TrafficSpec` describes one fabric-wide application workload —
offered load, packet size, traffic class, arrival process, destination
pattern — and :class:`TrafficGenerator` realizes it as one arrival
chain per active endpoint: a callback that injects one packet and
re-arms itself with ``env.call_later`` for the next arrival:

* **arrival processes** — ``poisson`` (memoryless, the classic open
  model), ``constant`` (a fixed inter-arrival clock), ``bursty``
  (geometric on/off: back-to-back line-rate bursts separated by
  exponential silences, same long-run load);
* **destination patterns** — ``uniform`` (every packet draws a fresh
  destination), ``permutation`` (a fixed random derangement, each
  source hammering one partner), ``hotspot`` (a configurable fraction
  of all traffic converges on one victim endpoint);
* **traffic class** — the per-flow TC selects the VC through the
  fabric's ``tc_vc_map``, so traffic either rides the low-priority VC
  under strict-priority management (the ASI bypass arrangement) or
  contends head-to-head with management on a mixed mapping.

An offered load of 0 is a valid spec meaning "idle": the generator
schedules nothing and draws no random numbers, so a load-0 run is
bit-identical to one without a generator at all — the property the
golden determinism tests pin.

``stop()`` ends every chain at its next arrival, and ``start()`` after
a ``stop()`` begins a fresh set of chains (new routes, a new pattern
draw) at the generator's original load: a chain started before the
restart never injects again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from ..fabric.fabric import Fabric
from ..fabric.header import RouteHeader
from ..fabric.packet import PI_APPLICATION, Packet
from ..fabric.params import APPLICATION_TC
from ..routing.paths import fabric_endpoint_routes
from ..sim.events import URGENT
from ..sim.monitor import Counter

#: Supported arrival processes.
ARRIVALS = ("poisson", "bursty", "constant")

#: Supported destination patterns.
PATTERNS = ("uniform", "permutation", "hotspot")

#: Schema tag embedded in every serialized spec.
TRAFFIC_SCHEMA = "repro/traffic/v1"

#: The generator's tallies: integer attributes of the same names,
#: bumped inline per packet by the sources and the sinks, and read as
#: one ``Counter`` through :attr:`TrafficGenerator.counters`.
TALLIES = ("packets_injected", "bytes_injected", "packets_delivered",
           "bytes_delivered", "latency_ns_total")


@dataclass(frozen=True)
class TrafficSpec:
    """A frozen, portable description of one application workload.

    Attributes
    ----------
    load:
        Offered load per source endpoint as a fraction of the link
        rate, in ``[0, 1]``.  ``0`` disables the workload entirely (no
        processes, no RNG draws).
    packet_bytes:
        Application payload size per packet.
    tc:
        Traffic class (0-7) stamped on every packet; the fabric's
        ``tc_vc_map`` turns this into a VC, which is where the QoS
        experiments bite (``APPLICATION_TC`` rides the low-priority VC
        on the default bypass mapping).
    arrival:
        Arrival process: ``poisson``, ``bursty``, or ``constant``.
    pattern:
        Destination pattern: ``uniform``, ``permutation``, or
        ``hotspot``.
    burst_length:
        Mean packets per burst for the ``bursty`` process (geometric).
    hotspot_fraction:
        For ``hotspot``: the probability a packet targets the hotspot
        endpoint instead of a uniform draw.
    """

    load: float = 0.5
    packet_bytes: int = 256
    tc: int = APPLICATION_TC
    arrival: str = "poisson"
    pattern: str = "uniform"
    burst_length: float = 8.0
    hotspot_fraction: float = 0.5

    def __post_init__(self):
        if not 0 <= self.load <= 1.0:
            raise ValueError("load must be in [0, 1]")
        if self.packet_bytes < 1:
            raise ValueError("packets need at least one byte")
        if not 0 <= self.tc <= 7:
            raise ValueError("tc must be a traffic class in 0..7")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r} "
                f"(expected one of {ARRIVALS})"
            )
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown destination pattern {self.pattern!r} "
                f"(expected one of {PATTERNS})"
            )
        if self.burst_length < 1:
            raise ValueError("mean burst length must be at least 1 packet")
        if not 0 < self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        """Whether this spec injects any traffic at all."""
        return self.load > 0

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-ready rendering (every field, always)."""
        document = {"schema": TRAFFIC_SCHEMA}
        for spec_field in fields(self):
            document[spec_field.name] = getattr(self, spec_field.name)
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "TrafficSpec":
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        kwargs = dict(document)
        schema = kwargs.pop("schema", TRAFFIC_SCHEMA)
        if schema != TRAFFIC_SCHEMA:
            raise ValueError(
                f"expected schema {TRAFFIC_SCHEMA!r}, got {schema!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(
                f"unknown TrafficSpec fields: {', '.join(unknown)}"
            )
        return cls(**kwargs)


class TrafficGenerator:
    """Realize a :class:`TrafficSpec` as per-endpoint arrival chains.

    Implements the workload lifecycle of :mod:`repro.workloads`
    (``start``/``stop``/``stats``/``describe``).  Legacy keyword
    construction (``TrafficGenerator(fabric, load=0.4, seed=7)``) still
    works: any :class:`TrafficSpec` field passed as a keyword overrides
    the given (or default) spec.

    Routes come from ground truth (:func:`fabric_endpoint_routes` —
    the turn pools a real deployment would have received from the FM),
    so application traffic flows from time zero, while discovery is
    still walking the fabric.
    """

    def __init__(self, fabric: Fabric, spec: Optional[TrafficSpec] = None,
                 seed: int = 0, **overrides):
        base = spec if spec is not None else TrafficSpec()
        self.spec = replace(base, **overrides) if overrides else base
        self.fabric = fabric
        self.env = fabric.env
        self.seed = seed
        self.rng = random.Random(seed)
        self.packets_injected = self.bytes_injected = 0
        self.packets_delivered = self.bytes_delivered = 0
        #: Delivery latency in integer nanoseconds, so every tally
        #: stays integral (``Counter``'s contract) without losing
        #: resolution.
        self.latency_ns_total = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        #: The token of the current ``start()``'s chains (``None`` while
        #: stopped): an arrival carrying any other ends its chain.
        self._chain: Optional[object] = None
        #: Per-source route tables computed from ground truth.
        self._routes: Dict[str, Dict[str, Tuple]] = {}
        #: pattern="permutation": fixed partner per source.
        self._partners: Dict[str, str] = {}
        #: pattern="hotspot": the victim endpoint.
        self._hotspot: Optional[str] = None

    # -- convenience views ---------------------------------------------------
    @property
    def load(self) -> float:
        return self.spec.load

    @property
    def packet_time(self) -> float:
        """Serialization time of one application packet on the wire."""
        wire = self.spec.packet_bytes + self.fabric.params.framing_overhead \
            + 16 + self.fabric.params.pcrc_bytes
        return self.fabric.params.tx_time(wire)

    @property
    def mean_interarrival(self) -> float:
        """Mean time between packets per source at the requested load."""
        if not self.spec.enabled:
            raise ValueError("idle spec (load=0) has no arrival rate")
        return self.packet_time / self.spec.load

    @property
    def running(self) -> bool:
        """Whether sources are currently injecting packets."""
        return self._chain is not None

    @property
    def counters(self) -> Counter:
        """Snapshot of the tallies that have counted: built on read
        from the integer attributes, so changing it changes nothing."""
        return Counter((key, value) for key in TALLIES
                       if (value := getattr(self, key)))

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Begin injecting traffic from every active endpoint.

        With ``load=0`` this is a no-op: nothing is scheduled and no
        random number is drawn, so the simulation's event stream is
        bit-identical to a run without a generator.  After a
        :meth:`stop` it starts new chains under a new token; the
        stopped ones stay ended, so a restart offers the spec's load,
        not twice it.  Each chain's first arrival is drawn by a
        zero-delay URGENT callback, the slot a process's start took.
        """
        if self._chain is not None:
            raise RuntimeError("traffic generator already running")
        if not self.spec.enabled:
            return
        chain = self._chain = object()
        self.started_at = self.env.now
        sources: List = []
        for endpoint in self.fabric.endpoints():
            if not endpoint.active:
                continue
            routes = fabric_endpoint_routes(self.fabric, endpoint.name)
            if not routes:
                continue
            self._routes[endpoint.name] = routes
            sources.append(endpoint)
        self._assign_pattern([ep.name for ep in sources])
        for endpoint in sources:
            self.env.schedule_callback(
                0.0, self._source(endpoint, chain), URGENT)

    def stop(self) -> None:
        """Stop all sources: each chain ends at its next arrival,
        injecting nothing more, so the heap drains.  A later
        :meth:`start` begins new chains; these never resume."""
        if self._chain is not None:
            self.stopped_at = self.env.now
        self._chain = None

    def stats(self) -> dict:
        """Counters plus derived offered/delivered rates."""
        result = self.counters.asdict()
        result["offered_load"] = self.spec.load
        until = (self.stopped_at if self.stopped_at is not None
                 else self.env.now)
        elapsed = (until - self.started_at
                   if self.started_at is not None else 0.0)
        result["elapsed"] = elapsed
        result["delivered_bytes_per_s"] = (
            result.get("bytes_delivered", 0) / elapsed if elapsed > 0
            else 0.0
        )
        return result

    def describe(self) -> dict:
        return {
            "workload": "traffic",
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "running": self.running,
        }

    # -- pattern wiring ------------------------------------------------------
    def _assign_pattern(self, sources: List[str]) -> None:
        """Draw the pattern's fixed randomness once, at start time."""
        self._partners.clear()  # a restart's sources and routes are new
        pattern = self.spec.pattern
        if pattern == "permutation" and len(sources) >= 2:
            # A single random cycle over the sources: shuffle, then
            # each sends to its successor.  No fixed points, and every
            # endpoint receives from exactly one partner.
            cycle = list(sources)
            self.rng.shuffle(cycle)
            for position, name in enumerate(cycle):
                partner = cycle[(position + 1) % len(cycle)]
                # Only a reachable partner is usable; fall back to a
                # per-packet uniform draw for sources whose cycle
                # successor has no route (partitioned fabrics).
                if partner in self._routes.get(name, ()):
                    self._partners[name] = partner
        elif pattern == "hotspot" and sources:
            self._hotspot = self.rng.choice(sorted(sources))

    def _picker(self, source: str, destinations):
        """The destination draw of one source, as a callable: its fixed
        partner, a hotspot-or-uniform draw, or a uniform draw."""
        partner = self._partners.get(source)
        if partner is not None:
            return lambda: partner
        choice = partial(self.rng.choice, destinations)
        hotspot = self._hotspot
        if (hotspot is None or hotspot == source
                or hotspot not in self._routes[source]):
            return choice
        fraction, draw = self.spec.hotspot_fraction, self.rng.random
        return lambda: hotspot if draw() < fraction else choice()

    # -- arrival processes ---------------------------------------------------
    def _gaps(self):
        """Iterator of inter-arrival gaps for one source."""
        mean = self.mean_interarrival
        if self.spec.arrival == "constant":
            return repeat(mean)
        if self.spec.arrival == "poisson":
            # Endless: ``expovariate`` never returns the ``None`` sentinel.
            return iter(partial(self.rng.expovariate, 1.0 / mean), None)
        return self._bursty_gaps(mean)

    def _bursty_gaps(self, mean: float):
        """Geometric on/off gaps with the same long-run load."""
        packet_time = self.packet_time
        burst_mean = self.spec.burst_length
        # Mean silence balancing `burst_mean` back-to-back packets
        # so the long-run average stays `load`.
        off_mean = max(burst_mean * (mean - packet_time), 1e-12)
        continue_p = 1.0 - 1.0 / burst_mean
        while True:
            yield self.rng.expovariate(1.0 / off_mean)
            # The burst's remaining packets follow at line rate.
            while self.rng.random() < continue_p:
                yield packet_time

    # -- the arrival chain ---------------------------------------------------
    def _source(self, endpoint, chain):
        """The start callback of one source's arrival chain.

        Each arrival injects one packet and re-arms itself with the
        next gap, in the slot (time, NORMAL, sequence number) a process
        sleeping on ``env.timeout(gap)`` would have taken, and the
        random draws come in the order the process made them.
        """
        call_later = self.env.call_later
        routes = self._routes[endpoint.name]
        pick = self._picker(endpoint.name, sorted(routes))
        gaps = self._gaps()
        # Immutable, so every packet of the source carries the one copy.
        payload = bytes(self.spec.packet_bytes)
        size, tc = len(payload), self.spec.tc

        def arrive():
            if self._chain is not chain or not endpoint.active:
                return
            pool, out_port = routes[pick()]
            header = RouteHeader(pi=PI_APPLICATION, tc=tc,
                                 turn_pointer=pool.bits, turn_pool=pool.pool)
            # ``inject`` stamps the source and the creation time.
            endpoint.inject(Packet(header=header, payload=payload),
                            port_index=out_port)
            self.packets_injected += 1
            self.bytes_injected += size
            call_later(next(gaps), arrive)

        return lambda handle: call_later(next(gaps), arrive)

    # -- delivery accounting -------------------------------------------------
    def attach_sinks(self, entities) -> None:
        """Count application-packet deliveries at each endpoint.

        ``entities`` maps device names to their management entities;
        the sink uses the entity's zero-cost application handler slot.
        Delivery latency is accumulated from each packet's
        ``created_at`` stamp.
        """
        env = self.env
        packet_bytes = self.spec.packet_bytes

        def sink(packet, port):
            self.packets_delivered += 1
            self.bytes_delivered += packet_bytes
            self.latency_ns_total += int(
                (env.now - packet.created_at) * 1e9)

        for endpoint in self.fabric.endpoints():
            entity = entities.get(endpoint.name)
            if entity is not None:
                entity.app_handler = sink
