"""The five workloads and the rep loop that measures them.

Everything here runs in a freshly spawned child (see ``run.py``), so
``repro`` is imported inside :meth:`Workload.setup` — that import is
part of what ``setup_s`` measures.  Each workload drives the program
through public entry points only and checks every output; a failed
check is a failed operation, never a skipped sample.

Sizes (topologies, request counts, probe scale) are constructor
arguments so ``perf/tests`` can run the same code on tiny fabrics.
The defaults are the benchmark; nothing on the command line changes
them.
"""

from __future__ import annotations

import cProfile
import copy
import functools
import gc
import heapq
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from layers import LayerLedger

ALGORITHMS = ("serial_packet", "serial_device", "parallel")

#: Per-client query mix of ``serve_churn`` (from ``bench_service.py``:
#: reads dominate, as a monitoring stack drives a control plane).
QUERY_MIX = ("topology", "status", "path", "status", "metrics", "status")

#: Error codes that are valid answers about a churning fabric.
VALID_ERRORS = ("no-path", "unknown-dsn")

#: Counters of ``MetricsRegistry.scrape_setup`` printed beside every
#: speed number as "the simulation did not change" witnesses.
WITNESSES = ("fm.requests_sent", "fm.completions_received",
             "port.tx_packets", "port.tx_bytes",
             "entity.rx_mgmt_packets", "fm.devices_known")


class HostSpeed(threading.Thread):
    """Samples how fast the host runs plain Python while a region runs.

    This box flips, in bursts of about a second, between a fast mode
    and one roughly 1.6x slower, and drifts between regimes over
    minutes; a rep's raw wall time follows the share of slow bursts it
    happened to meet.  The sampler times a fixed stdlib-only slice every
    ``PERIOD`` seconds on the same (pinned) core; the region's mean
    slice time over ``REFERENCE_S`` is its host factor, and host-time
    metrics are divided by it.  The slice never touches ``repro``, so a
    change to the program moves the metric and a change of host mood
    does not.  Cost: about 4% of the region, the same on every commit.
    """

    #: Loop count of one slice and seconds between slices.
    SLICE = 1000
    PERIOD = 0.010
    #: Seconds one slice takes on the reference box in its fast mode:
    #: a scale constant, so a factor of 1.0 means "reference speed".
    REFERENCE_S = 0.00023

    def __init__(self):
        super().__init__(name="perf-host-speed", daemon=True)
        self.samples: List[float] = []
        self._done = threading.Event()

    @classmethod
    def slice_s(cls) -> float:
        # Plain ints only: nothing here is tracked by the collector,
        # so a slice never triggers (and times) a collection of the
        # measured program's heap.
        start = time.perf_counter()
        heap: list = []
        seen = {}
        for i in range(cls.SLICE):
            heapq.heappush(heap, i * 7919 % 1000003)
            seen[i] = i
            if i & 1:
                heapq.heappop(heap)
        return time.perf_counter() - start

    def run(self):
        while True:
            self.samples.append(self.slice_s())
            if self._done.wait(self.PERIOD):
                return

    def factor(self) -> float:
        """Stop sampling; mean slice time over the reference.  A slice
        the scheduler interrupted is clipped at 3x the median slice."""
        self._done.set()
        self.join()
        limit = 3.0 * statistics.median(self.samples)
        clipped = [min(sample, limit) for sample in self.samples]
        return statistics.mean(clipped) / self.REFERENCE_S


def at_reference_speed(fn: Callable):
    """Run ``fn``; returns (result, raw seconds, host factor)."""
    sampler = HostSpeed()
    sampler.start()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        raw_s = time.perf_counter() - start
        factor = sampler.factor()
    return result, raw_s, factor


class Region:
    """A rep's timed region: wall clock with the host-speed sampler
    beside it, and cProfile around it when traced."""

    def __init__(self, profiler: Optional[cProfile.Profile] = None):
        self.profiler = profiler
        self.raw_s = 0.0
        self.factor = 1.0

    def run(self, fn: Callable):
        if self.profiler is not None:
            fn = functools.partial(self.profiler.runcall, fn)
        result, self.raw_s, self.factor = at_reference_speed(fn)
        return result

    @property
    def wall_s(self) -> float:
        """Seconds the region would take at reference host speed."""
        return self.raw_s / self.factor


@dataclass
class Rep:
    """What one rep did: operations, failed checks, and its numbers."""

    attempted: int
    #: One line per failed operation.
    failures: List[str] = field(default_factory=list)
    #: Simulated statistics that must be identical in every rep.
    facts: Optional[tuple] = None
    #: Measurements of this rep, by metric name.
    data: Dict[str, object] = field(default_factory=dict)
    #: Host factor of the rep's timed region (see :class:`HostSpeed`).
    host_factor: float = 1.0


class SetupCapture:
    """Duck-typed ``tracer`` for ``Scenario.run``: keeps the built
    simulation so its counters can be scraped afterwards.  Installs
    nothing, so the run is the untraced run."""

    setup = None

    def install(self, setup) -> None:
        self.setup = setup

    def finalize(self, setup) -> None:
        pass


def kernel_events(setup) -> int:
    """Kernel events scheduled so far.  ``env._eid`` is private — the
    wart a kernel-vitals issue fixes; reading it consumes one id."""
    return next(setup.env._eid)


def sim_counts(setups, events: int) -> Dict[str, float]:
    """The exact-count per-layer metrics of finished simulations."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for setup in setups:
        registry.scrape_setup(setup)
    counts = {name: registry.value(name) for name in WITNESSES}
    packets = (counts["fm.requests_sent"]
               + counts["fm.completions_received"])
    counts["sim.events"] = events
    counts["sim.events_per_mgmt_pkt"] = events / packets
    return counts


class Workload:
    """One named workload.  Subclasses fill in the steps."""

    name = ""
    #: The timed region is single-threaded, so a traced run may wrap it
    #: in cProfile without charging blocked time to a layer.
    profiled = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Timed as ``setup_s``: imports, topology, build."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed preparation after set-up."""

    def rep(self, region: Region, detail: bool) -> Rep:
        """One rep.  ``detail`` asks for the scraped counters too."""
        raise NotImplementedError

    def summarize(self, reps: List[Rep],
                  walls: List[float]) -> Dict[str, float]:
        """Workload-specific metrics from the timed reps."""
        return {}

    def close(self) -> None:
        """Stop whatever set-up started."""


class SimWorkload(Workload):
    """Shared summary of the three simulation workloads."""

    def summarize(self, reps, walls):
        last = reps[-1]
        metrics = {"sim_discovery_ms": last.data["sim_discovery_ms"]}
        counts = last.data.get("counts")
        if counts is not None:
            metrics.update(counts)
            metrics["sim.ns_per_event"] = (
                statistics.median(walls) * 1e9 / counts["sim.events"])
        return metrics


class Fig6Change(SimWorkload):
    name = "fig6_change"

    def __init__(self, seed: int, topology: str = "8x8 mesh"):
        super().__init__(seed)
        self.topology = topology

    def _scenario(self, algorithm: str):
        from repro.experiments.scenario import Scenario
        return Scenario(kind="change", topology=self.topology,
                        algorithm=algorithm, seed=self.seed)

    def setup(self):
        from repro.experiments.runner import build_simulation
        build_simulation(self._scenario("parallel").spec(), "parallel")

    def rep(self, region, detail):
        scenarios = [self._scenario(a) for a in ALGORITHMS]
        captures = [SetupCapture() for _ in scenarios]
        results = region.run(lambda: [
            s.run(tracer=c) for s, c in zip(scenarios, captures)
        ])
        rep = Rep(attempted=len(scenarios))
        facts = []
        events = 0
        for scenario, result, capture in zip(scenarios, results, captures):
            if not result.database_correct:
                rep.failures.append(
                    f"{scenario.algorithm}: database differs from fabric")
            stats = result.assimilation
            n = kernel_events(capture.setup)
            events += n
            facts.append((stats.discovery_time, stats.total_packets,
                          stats.total_bytes, n))
        rep.facts = tuple(facts)
        rep.data["sim_discovery_ms"] = 1e3 * sum(f[0] for f in facts)
        if detail:
            rep.data["counts"] = sim_counts(
                [c.setup for c in captures], events)
        return rep


class Discover1k(SimWorkload):
    name = "discover_1k"

    def __init__(self, seed: int, topology: str = "fattree2-1024"):
        super().__init__(seed)
        self.topology = topology

    def _build(self):
        from repro.experiments.runner import build_simulation
        from repro.topology import resolve_topology
        spec = resolve_topology(self.topology)
        # The seed picks which endpoint hosts the FM.
        host = spec.endpoints[self.seed % len(spec.endpoints)]
        return build_simulation(spec, "parallel", fm_host=host)

    def setup(self):
        self._build()

    def expected_devices(self, setup) -> int:
        return len(setup.fabric.devices)

    def rep(self, region, detail):
        from repro.experiments.runner import (
            database_matches_fabric,
            run_until_ready,
        )
        setup = self._build()
        stats = region.run(lambda: run_until_ready(setup))
        rep = Rep(attempted=1)
        expected = self.expected_devices(setup)
        if stats.devices_found != expected:
            rep.failures.append(
                f"found {stats.devices_found} of {expected} devices")
        elif not database_matches_fabric(setup):
            rep.failures.append("database differs from fabric")
        events = kernel_events(setup)
        rep.facts = (stats.discovery_time, stats.total_packets,
                     stats.total_bytes, events)
        rep.data["sim_discovery_ms"] = 1e3 * stats.discovery_time
        if detail:
            rep.data["counts"] = sim_counts([setup], events)
            rep.data["counts"]["analysis.model_err_pct"] = (
                self._model_error(setup, stats))
        return rep

    @staticmethod
    def _model_error(setup, stats) -> float:
        """|simulated - Fig. 7(b) closed form| / predicted, in %."""
        from repro.analysis.model import PipelineModel
        from repro.manager.timing import PARALLEL, ProcessingTimeModel
        model = PipelineModel.from_parameters(
            ProcessingTimeModel(), PARALLEL,
            known_devices=setup.spec.total_devices // 2,
        )
        predicted = model.predict(PARALLEL, stats.requests_sent)
        return 100.0 * abs(stats.discovery_time - predicted) / predicted


class LoadMesh16(SimWorkload):
    name = "load_mesh16"

    def __init__(self, seed: int, topology: str = "4x4 mesh",
                 load: float = 0.6):
        super().__init__(seed)
        self.topology = topology
        self.load = load

    def _scenario(self):
        from repro.experiments.scenario import Scenario
        return Scenario(kind="load", topology=self.topology,
                        traffic={"load": self.load}, seed=self.seed)

    def setup(self):
        from repro.experiments.runner import build_simulation
        build_simulation(self._scenario().spec(), "parallel")

    def rep(self, region, detail):
        scenario = self._scenario()
        capture = SetupCapture()
        result = region.run(lambda: scenario.run(tracer=capture))
        rep = Rep(attempted=1)
        if not result.database_correct:
            rep.failures.append("database differs from fabric")
        elif result.packets_delivered <= 0:
            rep.failures.append("no application packet was delivered")
        events = kernel_events(capture.setup)
        history = capture.setup.fm.history
        rep.facts = (result.discovery_time, result.assimilation_time,
                     sum(s.total_packets for s in history),
                     sum(s.total_bytes for s in history),
                     result.packets_injected, result.packets_delivered,
                     events)
        rep.data["sim_discovery_ms"] = 1e3 * (
            result.discovery_time + result.assimilation_time)
        if detail:
            rep.data["counts"] = sim_counts([capture.setup], events)
        return rep


class ServeChurn(Workload):
    """Closed loop: each client waits for its reply before it sends
    the next request, as monitoring callers do.

    The churn comes through the service's own mutation verbs, from the
    clients: every ``mutate_every`` requests the even clients remove a
    switch or put the last one back, the odd ones fail or restore a
    link, so a client never has more than one fault outstanding.
    ``start_service(churn=True)`` is not used: its injector's damage is
    an unbounded random walk, and once a route needs more than the 64
    turn bits the kernel dies (``TurnPoolError``) — within 14 s on
    every one of six seeds on mesh64, whose far-corner route is one
    detour short of that limit, and after 717 faults on torus64.
    """

    name = "serve_churn"
    # Requests are served on the driver and asyncio threads, which a
    # profiler started here does not see: per-op and direct-call
    # timing only.
    profiled = False

    def __init__(self, seed: int, topology: str = "torus64",
                 clients: int = 2, requests: int = 2000,
                 mutate_every: int = 200, direct_cycles: int = 100):
        super().__init__(seed)
        self.topology = topology
        self.n_clients = clients
        self.requests = requests
        self.mutate_every = mutate_every
        self.direct_cycles = direct_cycles
        self.handle = None
        self.clients: list = []
        self.pairs: list = []
        self.mutations: list = []

    def setup(self):
        from repro.service import start_service
        self.handle = start_service(self.topology, seed=self.seed)
        self.clients = [self.handle.client()
                        for _ in range(self.n_clients)]
        self.clients[0].request("ping")

    def prepare(self):
        client = self.clients[0]
        deadline = time.monotonic() + 60.0
        while client.request("status")["discoveries"] < 1:
            if time.monotonic() > deadline:
                raise RuntimeError("initial discovery did not finish")
            time.sleep(0.01)
        endpoints = [d["dsn"] for d in client.request("topology")["devices"]
                     if d["type"] == "endpoint"]
        rng = random.Random(self.seed)
        self.pairs = [tuple(rng.sample(endpoints, 2))
                      for _ in range(self.n_clients)]
        self.mutations = [self._mutation_plan(i)
                          for i in range(self.n_clients)]

    def _mutation_plan(self, index: int):
        """Endless (op, params) stream of client ``index``: break one
        thing, mend it, pick the next.  Nothing next to the FM's own
        switch is touched, so the FM stays attached."""
        spec = self.handle.setup.spec
        fm_host = spec.fm_host or spec.endpoints[0]
        switches = {name for name, _ in spec.switches}
        fm_switch = {b if a == fm_host else a
                     for a, _, b, _ in spec.links if fm_host in (a, b)}
        victims = sorted(switches - fm_switch)
        links = sorted((a, b) for a, _, b, _ in spec.links
                       if {a, b} <= switches and not {a, b} & fm_switch)
        rng = random.Random(f"{self.seed}/{index}")
        while True:
            if index % 2 == 0:
                params = {"name": rng.choice(victims)}
                yield "remove_device", params
                yield "restore_device", params
            else:
                a, b = rng.choice(links)
                yield "fail_link", {"a": a, "b": b}
                yield "restore_link", {"a": a, "b": b}

    def _client_loop(self, index: int, out: dict) -> None:
        """``requests`` requests on one connection; fills ``out``."""
        from repro.service import ServiceError
        client = self.clients[index]
        src, dst = self.pairs[index]
        samples, failures, valid_errors, mutations = [], [], 0, 0
        for i in range(self.requests):
            op = QUERY_MIX[i % len(QUERY_MIX)]
            params = {"src": src, "dst": dst} if op == "path" else {}
            try:
                if i % self.mutate_every == self.mutate_every - 1:
                    verb, target = next(self.mutations[index])
                    mutations += 1
                    try:
                        client.request(verb, **target)
                    except ServiceError as exc:
                        failures.append(f"{verb}: {exc}")
                start = time.perf_counter()
                try:
                    result = client.request(op, **params)
                except ServiceError as exc:
                    elapsed = time.perf_counter() - start
                    if exc.code not in VALID_ERRORS:
                        failures.append(f"{op}: {exc}")
                        continue
                    valid_errors += 1
                else:
                    elapsed = time.perf_counter() - start
                    if "sim_time" not in result:
                        failures.append(f"{op}: response without sim_time")
                        continue
            except (OSError, ValueError) as exc:
                # Timeout, transport or framing error: the connection
                # is gone, so every request left on it fails too.
                left = self.requests - i
                failures.extend(
                    [f"{op}: {type(exc).__name__}: {exc}"] * left)
                break
            samples.append((op, elapsed))
        out[index] = (samples, failures, valid_errors, mutations)

    def rep(self, region, detail):
        driver = self.handle.driver
        out: dict = {}
        threads = [
            threading.Thread(target=self._client_loop, args=(i, out),
                             name=f"perf-client-{i}")
            for i in range(self.n_clients)
        ]
        events_before = driver.events_stepped
        commands_before = driver.commands_run

        def closed_loop():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        region.run(closed_loop)
        # Every request and mutation, and the driver-survived check.
        rep = Rep(attempted=self.n_clients * self.requests + 1)
        samples = []
        valid_errors = mutations = 0
        for index in range(self.n_clients):
            s, failures, v, m = out[index]
            samples.extend(s)
            rep.failures.extend(failures)
            valid_errors += v
            mutations += m
        rep.attempted += mutations
        if driver.crashed is not None:
            rep.failures.append(f"driver crashed: {driver.crashed!r}")
        rep.data.update(
            samples=samples,
            valid_errors=valid_errors,
            mutations=mutations,
            events=driver.events_stepped - events_before,
            commands=driver.commands_run - commands_before,
        )
        if detail:
            direct, _, factor = at_reference_speed(self._direct_phase)
            rep.data["direct"] = [(op, t / factor) for op, t in direct]
        return rep

    def _direct_phase(self) -> List[tuple]:
        """The same ops through ``call_op``: the driver-thread round
        trip without TCP, JSON framing or asyncio."""
        from repro.service import ApiError
        from repro.service.api import call_op
        src, dst = self.pairs[0]
        samples = []
        for i in range(self.direct_cycles * len(QUERY_MIX)):
            op = QUERY_MIX[i % len(QUERY_MIX)]
            params = {"src": src, "dst": dst} if op == "path" else {}
            start = time.perf_counter()
            try:
                call_op(self.handle.driver, op, params)
            except ApiError as exc:
                if exc.code not in VALID_ERRORS:
                    raise
            samples.append((op, time.perf_counter() - start))
        return samples

    def summarize(self, reps, walls):
        def by_op(samples):
            grouped: Dict[str, List[float]] = {}
            for op, elapsed in samples:
                grouped.setdefault(op, []).append(elapsed)
            return grouped

        # Latencies at reference host speed, like every host time.
        per_rep = [[(op, t / rep.host_factor)
                    for op, t in rep.data["samples"]] for rep in reps]
        metrics = {}
        for name, p in (("req_p50_ms", 50), ("req_p99_ms", 99)):
            metrics[name] = 1e3 * statistics.median(
                statistics.quantiles([t for _, t in samples], n=100)[p - 1]
                for samples in per_rep
            )
        tcp = by_op([s for samples in per_rep for s in samples])
        for op, times in tcp.items():
            metrics[f"service.req.{op}.p50_ms"] = (
                1e3 * statistics.median(times))
        metrics["service.sim_events_per_s"] = (
            sum(rep.data["events"] for rep in reps) / sum(walls))
        metrics["service.commands_run"] = sum(
            rep.data["commands"] for rep in reps)
        metrics["service.valid_error_answers"] = sum(
            rep.data["valid_errors"] for rep in reps)
        metrics["service.faults_injected"] = sum(
            rep.data["mutations"] for rep in reps)
        direct = reps[-1].data.get("direct")
        if direct is not None:
            mix = {op: QUERY_MIX.count(op) for op in set(QUERY_MIX)}
            for op, times in by_op(direct).items():
                metrics[f"service.direct.{op}.p50_ms"] = (
                    1e3 * statistics.median(times))
            metrics["service.frontend_share"] = 1.0 - (
                sum(n * metrics[f"service.direct.{op}.p50_ms"]
                    for op, n in mix.items())
                / sum(n * metrics[f"service.req.{op}.p50_ms"]
                      for op, n in mix.items())
            )
            metrics.update(self._final_counts())
        return metrics

    def _final_counts(self) -> Dict[str, float]:
        """The witness counters as the service's own ``metrics`` op
        reports them when the run ends (not repeatable: requests land
        on the simulated clock wherever wall time puts them)."""
        scraped = self.clients[0].request("metrics")["metrics"]
        counts = {name: scraped[name]["value"] for name in WITNESSES}
        counts["sim.events"] = self.handle.driver.events_stepped
        return counts

    def close(self):
        for client in self.clients:
            client.close()
        if self.handle is not None:
            self.handle.stop()


class LayerProbes(Workload):
    """Fixed-work micro-drives of each layer's public functions.

    Every probe runs ``PASSES`` times per rep and keeps its fastest
    pass; ``scale`` multiplies every loop count (tests shrink it).
    """

    name = "layer_probes"
    # A profile of the probes would mostly time this file's loops.
    profiled = False
    PASSES = 3

    def __init__(self, seed: int, scale: float = 1.0,
                 db_topology: str = "fattree2-1024"):
        super().__init__(seed)
        self.scale = scale
        self.db_topology = db_topology
        self.database = None
        self.fm_dsn = None
        self.victim = None

    def n(self, count: int) -> int:
        return max(1, int(count * self.scale))

    # -- set-up --------------------------------------------------------------
    def setup(self):
        self._relay()
        self._codec_fixtures()

    @staticmethod
    def _relay():
        """A - sw1 - sw2 - B, powered up (as ``bench_kernel.py``)."""
        from repro.fabric.fabric import Fabric
        from repro.sim.core import Environment
        fabric = Fabric(Environment())
        fabric.add_endpoint("A")
        fabric.add_endpoint("B")
        fabric.add_switch("sw1")
        fabric.add_switch("sw2")
        fabric.connect("A", 0, "sw1", 0)
        fabric.connect("sw1", 1, "sw2", 0)
        fabric.connect("sw2", 1, "B", 0)
        fabric.power_up()
        return fabric

    def _codec_fixtures(self):
        from repro.fabric.packet import (
            PI_APPLICATION,
            Packet,
            make_management_header,
        )
        from repro.protocols.pi4 import ReadCompletion, ReadRequest
        from repro.routing.turnpool import intern_hop
        rng = random.Random(self.seed)
        self.header = make_management_header(
            turn_pool=rng.getrandbits(48), turn_pointer=48, pi=4)
        self.packet = Packet(
            header=make_management_header(
                turn_pool=rng.getrandbits(48), turn_pointer=48,
                pi=PI_APPLICATION),
            payload=rng.randbytes(64),
        )
        self.request = ReadRequest(cap_id=0, offset=rng.randrange(64),
                                   tag=rng.randrange(1 << 16), count=8)
        self.completion = ReadCompletion(
            cap_id=0, offset=self.request.offset, tag=self.request.tag,
            data=tuple(rng.getrandbits(32) for _ in range(8)))
        self.hops = [
            intern_hop(16, in_port, out_port)
            for in_port, out_port in (
                rng.sample(range(16), 2) for _ in range(6))
        ]

    def prepare(self):
        """Fill a database with one discovery (``discover_1k``'s timed
        region, so not timed again here) and pick the link to fail."""
        from repro.experiments.runner import (
            build_simulation,
            run_until_ready,
        )
        from repro.topology import resolve_topology
        setup = build_simulation(resolve_topology(self.db_topology),
                                 "parallel")
        run_until_ready(setup)
        self.database = setup.fm.database
        self.fm_dsn = setup.fm.endpoint.dsn
        self.database.recompute_routes(self.fm_dsn)  # canonical form
        # A route-tree edge, so the failure forces subtree surgery.
        switches = sorted(
            (r for r in self.database.switches()
             if r.ingress_port is not None),
            key=lambda r: r.dsn)
        victim = random.Random(self.seed).choice(switches)
        self.victim = (victim.dsn, victim.ingress_port)

    # -- probes: each returns (metric values, failure or None) ---------------
    def probe_timer_events(self):
        from repro.sim.core import Environment
        procs, per_proc = 50, self.n(1800)
        env = Environment()

        def ticker(env, delay, k):
            for _ in range(k):
                yield env.timeout(delay)

        for i in range(procs):
            env.process(ticker(env, 1e-6 * (i + 1), per_proc))
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        return {"sim.probe.timer_events_per_s":
                procs * per_proc / elapsed}, None

    def probe_callback_events(self):
        from repro.sim.core import Environment
        total = self.n(120_000)
        env = Environment()
        fired = [0]

        def tick(_event):
            fired[0] += 1
            if fired[0] < total:
                env.schedule_callback(1e-6, tick)

        env.schedule_callback(1e-6, tick)
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        failure = (None if fired[0] == total
                   else f"{fired[0]} of {total} callbacks fired")
        return {"sim.probe.callback_events_per_s": total / elapsed}, failure

    def probe_cancel_pairs(self):
        from repro.sim.core import Environment
        pairs, backlog = self.n(24_000), self.n(10_000)
        env = Environment()
        for i in range(backlog):
            env.timeout(1e6 + i)  # far-future backlog, never runs

        def churner(env, k):
            for _ in range(k):
                env.cancel(env.timeout(1e5))
                yield env.timeout(1e-6)

        proc = env.process(churner(env, pairs))
        start = time.perf_counter()
        env.run(until=proc)
        elapsed = time.perf_counter() - start
        return {"sim.probe.cancel_pairs_per_s": pairs / elapsed}, None

    def probe_relay(self):
        from repro.fabric.header import RouteHeader
        from repro.fabric.packet import PI_APPLICATION, Packet
        from repro.routing.paths import fabric_endpoint_routes
        packets = self.n(900)
        fabric = self._relay()
        env = fabric.env
        pool, out_port = fabric_endpoint_routes(fabric, "A")["B"]
        src = fabric.device("A")
        delivered = [0]

        def sink(packet, port):
            delivered[0] += 1

        fabric.device("B").local_handler = sink
        payload = bytes(64)

        def source(env):
            for _ in range(packets):
                header = RouteHeader(pi=PI_APPLICATION,
                                     turn_pointer=pool.bits,
                                     turn_pool=pool.pool)
                src.inject(Packet(header=header, payload=payload),
                           port_index=out_port)
                # Paced near the link rate: queues stay shallow.
                yield env.timeout(2e-7)

        env.process(source(env))
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        failure = (None if delivered[0] == packets
                   else f"relay delivered {delivered[0]} of {packets}")
        return {"fabric.port.probe.relay_pkts_per_s":
                packets / elapsed}, failure

    def probe_header(self):
        from repro.fabric.header import RouteHeader
        loops = self.n(15_000)
        header = self.header
        ok = True
        start = time.perf_counter()
        for i in range(loops):
            header.turn_pointer = i & 63  # dirties the CRC memo
            ok &= RouteHeader.unpack(header.pack()) == header
        elapsed = time.perf_counter() - start
        return ({"fabric.packet.probe.header_roundtrip_ns":
                 1e9 * elapsed / loops},
                None if ok else "header did not round-trip")

    def probe_packet(self):
        from repro.fabric.packet import Packet
        loops = self.n(9000)
        packet = self.packet
        ok = True
        start = time.perf_counter()
        for _ in range(loops):
            back = Packet.from_bytes(packet.to_bytes())
            ok &= (back.header == packet.header
                   and back.payload == packet.payload)
        elapsed = time.perf_counter() - start
        return ({"fabric.packet.probe.packet_roundtrip_ns":
                 1e9 * elapsed / loops},
                None if ok else "packet did not round-trip")

    def probe_pi4(self):
        from repro.protocols import pi4
        loops = self.n(7200)
        request, completion = self.request, self.completion
        ok = True
        start = time.perf_counter()
        for _ in range(loops):
            ok &= pi4.decode(request.pack()) == request
            ok &= pi4.decode(completion.pack()) == completion
        elapsed = time.perf_counter() - start
        return ({"protocols.probe.pi4_roundtrip_ns":
                 1e9 * elapsed / loops},
                None if ok else "PI-4 message did not round-trip")

    def probe_turnpool(self):
        from repro.routing.turnpool import build_turn_pool, walk_forward
        loops = self.n(15_000)
        hops = self.hops
        walk = [(h.nports, h.in_port) for h in hops]
        expected = [h.out_port for h in hops]
        ok = True
        start = time.perf_counter()
        for _ in range(loops):
            ok &= walk_forward(build_turn_pool(hops), walk) == expected
        elapsed = time.perf_counter() - start
        return ({"routing.probe.turnpool_ns": 1e9 * elapsed / loops},
                None if ok else "turn pool walked to the wrong ports")

    def probe_config_read(self):
        from repro.capability.baseline import BASELINE_CAP_ID
        loops = self.n(36_000)
        space = self._relay().device("sw1").config_space
        expected = space.read(BASELINE_CAP_ID, 0, 8)
        ok = len(expected) == 8
        start = time.perf_counter()
        for _ in range(loops):
            ok &= space.read(BASELINE_CAP_ID, 0, 8) == expected
        elapsed = time.perf_counter() - start
        return ({"capability.probe.read8_ns": 1e9 * elapsed / loops},
                None if ok else "config-space read changed")

    def probe_graph(self):
        loops = self.n(7)
        start = time.perf_counter()
        for _ in range(loops):
            graph = self.database.graph()
        elapsed = time.perf_counter() - start
        failure = (None if len(graph) == len(self.database)
                   else "graph misses devices")
        return ({"manager.database.probe.graph_ms":
                 1e3 * elapsed / loops}, failure)

    def probe_recompute(self):
        """Fail one route-tree link, then recompute both ways."""
        loops = self.n(2)
        full_s = incremental_s = 0.0
        failure = None
        for _ in range(loops):
            full = copy.deepcopy(self.database)
            full.mark_port_down(*self.victim)
            incremental = copy.deepcopy(full)
            start = time.perf_counter()
            full.recompute_routes(self.fm_dsn)
            full_s += time.perf_counter() - start
            start = time.perf_counter()
            mode = incremental.recompute_routes(
                self.fm_dsn, incremental=True)["mode"]
            incremental_s += time.perf_counter() - start
            if mode != "incremental":
                failure = f"incremental recompute ran as {mode}"
            elif _routes(incremental) != _routes(full):
                failure = "incremental routes differ from full"
        return ({"manager.database.probe.recompute_full_ms":
                 1e3 * full_s / loops,
                 "manager.database.probe.recompute_incremental_ms":
                 1e3 * incremental_s / loops}, failure)

    def probes(self) -> List[Callable]:
        return [self.probe_timer_events, self.probe_callback_events,
                self.probe_cancel_pairs, self.probe_relay,
                self.probe_header, self.probe_packet, self.probe_pi4,
                self.probe_turnpool, self.probe_config_read,
                self.probe_graph, self.probe_recompute]

    def rep(self, region, detail):
        probes = self.probes()
        rep = Rep(attempted=len(probes))

        def run_all():
            for probe in probes:
                failure = None
                for _ in range(self.PASSES):
                    values, failed = probe()
                    failure = failure or failed
                    _keep_best(rep.data, values)
                if failure is not None:
                    rep.failures.append(f"{probe.__name__}: {failure}")

        region.run(run_all)
        return rep

    def summarize(self, reps, walls):
        best: Dict[str, float] = {}
        for rep in reps:
            _keep_best(best, rep.data)
        return best


def _keep_best(best: dict, values: dict) -> None:
    """Fold ``values`` into ``best``: highest rate, lowest time."""
    for name, value in values.items():
        pick = max if name.endswith("_per_s") else min
        best[name] = pick(best[name], value) if name in best else value


def _routes(database) -> list:
    return [(r.dsn, r.out_port, r.ingress_port, tuple(r.route_hops))
            for r in sorted(database.devices(), key=lambda r: r.dsn)]


WORKLOADS = {cls.name: cls for cls in (
    Fig6Change, Discover1k, LoadMesh16, ServeChurn, LayerProbes)}


def measure_setup(workload: Workload) -> float:
    """``setup_s`` of ``workload`` alone, in this fresh process."""
    try:
        _, raw_s, factor = at_reference_speed(workload.setup)
        return raw_s / factor
    finally:
        workload.close()


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Set up ``workload`` and run its reps; returns the child's report.

    One untimed warm-up rep, then timed reps until ``seconds`` of timed
    region have been measured (a traced run times one rep and then
    profiles one more).  ``gc.collect()`` runs before each rep and the
    collector stays enabled inside the timed region.
    """
    try:
        _, raw_s, factor = at_reference_speed(workload.setup)
        workload.prepare()

        done: List[Rep] = []

        def one(profiler=None, detail=False) -> Region:
            gc.collect()
            region = Region(profiler)
            rep = workload.rep(region, detail)
            rep.host_factor = region.factor
            if done and rep.facts is not None:
                rep.attempted += 1
                if rep.facts != done[0].facts:
                    rep.failures.append(
                        "simulated statistics differ from the first rep")
            done.append(rep)
            return region

        one()  # warm-up
        regions = [one(detail=trace)]
        while not trace and sum(r.raw_s for r in regions) < seconds:
            regions.append(one())
        timed = done[1:]
        walls = [r.wall_s for r in regions]
        metrics = {"setup_s": raw_s / factor,
                   "wall_s": statistics.median(walls)}
        metrics.update(workload.summarize(timed, walls))
        unmapped: List[str] = []
        if trace and workload.profiled:
            profiler = cProfile.Profile()
            traced = one(profiler)
            ledger = LayerLedger().add(profiler.getstats())
            metrics.update(ledger.metrics())
            metrics["trace.total_s"] = ledger.total_s
            metrics["trace.overhead_x"] = traced.wall_s / walls[0]
            done[-1].attempted += 1
            if abs(ledger.charged_s - ledger.total_s) > 0.01 * ledger.total_s:
                done[-1].failures.append(
                    f"layer self-times sum to {ledger.charged_s:.4f} s, "
                    f"profile total is {ledger.total_s:.4f} s")
            unmapped = sorted(ledger.unmapped)
    finally:
        workload.close()
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    failures = [line for rep in done for line in rep.failures]
    return {
        "attempted": sum(rep.attempted for rep in done),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "reps": [{"raw_s": r.raw_s, "host_factor": r.factor,
                  "wall_s": r.wall_s} for r in regions],
        "unmapped": unmapped,
    }


def main(argv: List[str]) -> int:
    """Child entry, started by ``run.py`` with ``src`` on the path:
    ``workloads.py NAME SEED SECONDS TRACE SETUP_ONLY``.  Prints the
    report as one JSON line."""
    name, seed, seconds, trace, setup_only = argv
    # One core for every thread, so the host-speed sampler sees the
    # core the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[name](int(seed))
    if int(setup_only):
        report = {"setup_s": measure_setup(workload)}
    else:
        report = measure(workload, float(seconds), bool(int(trace)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
