"""The service's JSON operation handlers.

Every operation is a pure function from simulation state to a
JSON-ready result document.  Handlers marked ``sim`` run **on the sim
thread** (between kernel events, via
:meth:`~repro.service.driver.SimulationDriver.submit`) because they
read or mutate live fabric/FM state; the rest touch only static
registries and may run anywhere.

Read operations
---------------
``ping``        liveness + schema version + the driver's snapshot
                ``version`` and memo counters (never memoised, never
                on the sim thread: the O(1) "did anything change" probe)
``status``      FM status, discovery stats, driver/churn counters
``topology``    snapshot of the FM's :class:`~repro.manager.database.TopologyDatabase`
``path``        path + FM source route between two DSNs
``metrics``     end-of-scrape of the obs :class:`~repro.obs.metrics.MetricsRegistry`
``topologies``  registered topology families/aliases (+ describe)

``status``/``topology``/``path``/``metrics`` are the :data:`READS`:
pure functions of the state between two kernel events, answered
through :meth:`~repro.service.driver.SimulationDriver.read` (see
:func:`read_op`) and stamped with the ``version`` they were computed at.

Mutation verbs
--------------
``remove_device`` / ``restore_device`` / ``fail_link`` /
``restore_link``  hot topology changes (the API-driven fault plan)
``rediscover``    trigger a full rediscovery
``audit``         run the consistency auditor, report + feed the result
``kill_fm``       remove the primary FM's host endpoint (the service
                  must be running a standby; its heartbeats start
                  missing and it will eventually promote itself)
``promote_standby``  promote the standby immediately; the feed emits a
                  ``failover`` event when the takeover completes
``start_traffic`` start an application-traffic workload
                  (:class:`~repro.workloads.traffic.TrafficGenerator`)
                  from every active endpoint; params mirror
                  :class:`~repro.workloads.traffic.TrafficSpec`
``stop_traffic``  stop the running workload and return its final stats

``subscribe`` / ``unsubscribe`` / ``shutdown`` are connection-level and
handled by the server, not here.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from ..fabric.fabric import FabricError
from ..manager.consistency import audit_topology
from ..obs.metrics import MetricsRegistry
from ..routing.graph import NoPath, shortest_path
from ..topology.registry import describe_topology, topology_catalog

#: Wire schema version, announced in the hello banner and ``ping``.
#: v1.1 added the ``start_traffic``/``stop_traffic`` verbs and the
#: traffic gauges in ``metrics``; v1.2 adds ``version`` to the four
#: reads and ``version``/``memo_hits``/``memo_misses`` to ``ping``
#: (both purely additive; v1 clients work).
SCHEMA = "repro/service/v1.2"


class ApiError(Exception):
    """A client-visible request failure (wrapped into the envelope)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _require(params: dict, key: str, kind, kindname: str):
    value = params.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ApiError(
            "bad-request", f"{key!r} must be {kindname}, got {value!r}"
        )
    return value


def _feed(driver, event: dict) -> None:
    """Publish to the event feed, if the server wired one up."""
    sink = getattr(driver, "feed", None)
    if sink is not None:
        sink(event)


# -- read operations ----------------------------------------------------------

def op_ping(setup, driver, params) -> dict:
    return {"schema": SCHEMA, "wall_time": time.time(),
            "version": driver.version, "memo_hits": driver.memo_hits,
            "memo_misses": driver.memo_misses}


def op_status(setup, driver, params) -> dict:
    fm = setup.fm
    ready = fm.ready_event is not None and fm.ready_event.triggered
    last = fm.history[-1].asdict() if fm.history else None
    injector = driver.injector
    return {
        "sim_time": setup.env.now,
        "topology": setup.spec.name,
        "algorithm": fm.algorithm_key,
        "manager": fm.assimilation,
        "ready": ready,
        "is_discovering": fm.is_discovering,
        "discoveries": len(fm.history),
        "devices_known": len(fm.database),
        "last_discovery": last,
        "counters": fm.counters.asdict(),
        "driver": {
            "events_stepped": driver.events_stepped,
            "commands_run": driver.commands_at_version,
            "crashed": repr(driver.crashed) if driver.crashed else None,
        },
        "churn": None if injector is None else {
            "faults_injected": len(injector.log),
            "mid_discovery_faults": injector.mid_discovery_faults,
            "kinds": injector.summary(),
        },
    }


def op_topology(setup, driver, params) -> dict:
    db = setup.fm.database
    devices = []
    links = []
    for record in sorted(db.devices(), key=lambda r: r.dsn):
        devices.append({
            "dsn": record.dsn,
            "type": "switch" if record.is_switch else "endpoint",
            "nports": record.nports,
            "fm_capable": record.fm_capable,
        })
        for index in sorted(record.ports):
            port = record.ports[index]
            if not port.up or port.neighbor_dsn not in db:
                continue
            far = (port.neighbor_dsn,
                   -1 if port.neighbor_port is None else port.neighbor_port)
            if (record.dsn, index) < far:
                links.append([record.dsn, index, far[0], far[1]])
    return {
        "sim_time": setup.env.now,
        "summary": db.summary(),
        "devices": devices,
        "links": links,
    }


def op_path(setup, driver, params) -> dict:
    src = _require(params, "src", int, "a DSN integer")
    dst = _require(params, "dst", int, "a DSN integer")
    db = setup.fm.database
    for dsn in (src, dst):
        if dsn not in db:
            raise ApiError("unknown-dsn",
                           f"DSN {dsn:#x} not in the database")
    graph = db.graph()
    try:
        hops = shortest_path(graph, src, dst)
    except NoPath:
        raise ApiError(
            "no-path", f"no path between {src:#x} and {dst:#x}"
        ) from None
    record = db.device(dst)
    fm_route = None
    if record.ingress_port is not None:
        fm_route = {
            "out_port": record.out_port,
            "ingress_port": record.ingress_port,
            "hops": [
                {"nports": hop.nports, "in_port": hop.in_port,
                 "out_port": hop.out_port}
                for hop in record.route_hops
            ],
        }
    return {
        "sim_time": setup.env.now,
        "src": src,
        "dst": dst,
        "hops": [int(dsn) for dsn in hops],
        "length": len(hops) - 1,
        "fm_route": fm_route,
    }


def op_metrics(setup, driver, params) -> dict:
    registry = MetricsRegistry().scrape_setup(setup)
    gauges = registry.gauges
    # Kernel events advanced by the driver.
    gauges["service.events_stepped"] = driver.events_stepped
    # Commands executed on the sim thread.
    gauges["service.commands_run"] = driver.commands_at_version
    # CPU seconds of the sim thread and of the process, at this version.
    (gauges["service.cpu_s.driver"],
     gauges["service.cpu_s.process"]) = driver.cpu_at_version
    # The event kernel's own counters (Environment.vitals).
    for key, value in setup.env.vitals().items():
        gauges[f"kernel.{key}"] = value
    tap = getattr(driver, "tap", None)
    if tap is not None:
        gauges["service.feed_pi5"] = tap.forwarded["pi5"]
        gauges["service.feed_spans"] = tap.forwarded["span"]
    traffic = getattr(driver, "traffic", None)
    if traffic is not None:
        stats = traffic.stats()
        # The requested per-endpoint load fraction, the packets so far
        # and the application goodput since the generator started.
        for key in ("offered_load", "packets_injected", "packets_delivered",
                    "delivered_bytes_per_s"):
            gauges[f"traffic.{key}"] = stats.get(key, 0)
    return {"sim_time": setup.env.now, "metrics": registry.collect()}


def op_topologies(setup, driver, params) -> dict:
    result = {"catalog": topology_catalog()}
    if params.get("describe") is not None:
        name = _require(params, "describe", str, "a name")
        try:
            result["described"] = describe_topology(name)
        except ValueError as exc:
            raise ApiError("unknown-topology", str(exc)) from None
    return result


# -- mutation verbs ------------------------------------------------------------

def _mutation_event(driver, setup, verb: str, target: str) -> None:
    _feed(driver, {
        "event": "mutation",
        "verb": verb,
        "target": target,
        "sim_time": setup.env.now,
    })


#: verb (== the ``Fabric`` method) -> (device-name params, result key).
FABRIC_VERBS = {
    "remove_device": (("name",), "removed"),
    "restore_device": (("name",), "restored"),
    "fail_link": (("a", "b"), "failed"),
    "restore_link": (("a", "b"), "restored"),
}


def _fabric_verb(verb: str) -> Callable:
    names, key = FABRIC_VERBS[verb]

    def op(setup, driver, params) -> dict:
        targets = [_require(params, name, str, "a device name")
                   for name in names]
        try:
            getattr(setup.fabric, verb)(*targets)
        except FabricError as exc:
            raise ApiError("bad-mutation", str(exc)) from None
        _mutation_event(driver, setup, verb, "<->".join(targets))
        return {key: targets[0] if len(targets) == 1 else targets,
                "sim_time": setup.env.now}

    return op


def op_rediscover(setup, driver, params) -> dict:
    force = bool(params.get("force", False))
    fm = setup.fm
    if fm.busy and not force:
        raise ApiError(
            "busy", "a discovery or assimilation is already running "
            "(pass force=true to abort it and restart)"
        )
    fm.start_discovery(trigger="change" if fm.history else "initial",
                       force=force)
    _mutation_event(driver, setup, "rediscover", setup.spec.name)
    return {"started": True, "sim_time": setup.env.now}


def _standby_for(driver):
    standby = getattr(driver, "standby", None)
    if standby is None:
        raise ApiError(
            "no-standby",
            "service was started without a standby FM "
            "(serve --standby)",
        )
    return standby


def _outcome(standby, setup) -> dict:
    return {"standby": standby.fm.endpoint.name, "sim_time": setup.env.now}


def op_kill_fm(setup, driver, params) -> dict:
    standby = _standby_for(driver)
    if standby.active:
        raise ApiError(
            "bad-mutation", "the standby is already the active FM"
        )
    host = setup.fm.endpoint.name
    try:
        setup.fabric.remove_device(host)
    except FabricError as exc:
        raise ApiError("bad-mutation", str(exc)) from None
    standby.note_primary_failure(setup.env.now)
    outcome = _outcome(standby, setup)
    _feed(driver, {"event": "failover", "phase": "primary_killed",
                   "host": host, **outcome})
    return {"killed": host, **outcome}


def op_promote_standby(setup, driver, params) -> dict:
    standby = _standby_for(driver)
    if standby.active:
        raise ApiError("bad-mutation", "standby already promoted")
    # The harness wired a takeover_event callback at start-up that
    # swaps setup.fm and feeds the `takeover_complete` event, so it
    # fires for heartbeat-triggered promotions too — not just this
    # verb.
    standby.promote()
    return {"promoting": True, **_outcome(standby, setup)}


def op_start_traffic(setup, driver, params) -> dict:
    traffic = getattr(driver, "traffic", None)
    if traffic is not None and traffic.running:
        raise ApiError(
            "traffic-running",
            "a traffic workload is already running (stop_traffic first)",
        )
    from dataclasses import fields as dc_fields

    from ..workloads.traffic import TrafficGenerator, TrafficSpec
    seed = _require({"seed": 0, **params}, "seed", int, "an integer")
    known = {f.name for f in dc_fields(TrafficSpec)}
    spec_kwargs = {k: v for k, v in params.items() if k in known}
    try:
        spec = TrafficSpec(**spec_kwargs)
    except (TypeError, ValueError) as exc:
        raise ApiError("bad-request", str(exc)) from None
    if not spec.enabled:
        raise ApiError(
            "bad-request", "'load' must be positive to start traffic"
        )
    generator = TrafficGenerator(setup.fabric, spec, seed=seed)
    generator.attach_sinks(setup.entities)
    generator.start()
    driver.traffic = generator
    _mutation_event(driver, setup, "start_traffic",
                    f"load={spec.load:g} tc={spec.tc}")
    result = generator.describe()
    result["sim_time"] = setup.env.now
    return result


def op_stop_traffic(setup, driver, params) -> dict:
    traffic = getattr(driver, "traffic", None)
    if traffic is None or not traffic.running:
        raise ApiError(
            "no-traffic", "no traffic workload is running"
        )
    traffic.stop()
    _mutation_event(driver, setup, "stop_traffic",
                    f"load={traffic.load:g}")
    return {
        "stopped": True,
        "stats": traffic.stats(),
        "sim_time": setup.env.now,
    }


def op_audit(setup, driver, params) -> dict:
    report = audit_topology(setup.fabric, setup.fm)
    result = report.asdict()
    result["summary"] = report.summary()
    result["sample"] = [str(d) for d in report.differences[:20]]
    _feed(driver, {
        "event": "audit",
        "ok": report.ok,
        "differences": len(report.differences),
        "by_kind": report.by_kind(),
        "sim_time": setup.env.now,
    })
    return result


#: op -> (handler, runs-on-sim-thread).
HANDLERS: Dict[str, Tuple[Callable, bool]] = {
    "ping": (op_ping, False),
    "status": (op_status, True),
    "topology": (op_topology, True),
    "path": (op_path, True),
    "metrics": (op_metrics, True),
    "topologies": (op_topologies, False),
    **{verb: (_fabric_verb(verb), True) for verb in FABRIC_VERBS},
    "rediscover": (op_rediscover, True),
    "audit": (op_audit, True),
    "kill_fm": (op_kill_fm, True),
    "promote_standby": (op_promote_standby, True),
    "start_traffic": (op_start_traffic, True),
    "stop_traffic": (op_stop_traffic, True),
}

#: Ops that are pure functions of the between-events state.
READS = frozenset(("status", "topology", "path", "metrics"))


class Snapshot:
    """One read's outcome at one version: its result document, or the
    ``(code, message)`` of the :class:`ApiError` it answers with.
    ``wire`` caches the result's JSON encoding (filled by the first
    server response that needs it)."""

    __slots__ = ("result", "error", "wire")

    def __init__(self, result: Optional[dict], error: Optional[tuple]):
        self.result, self.error, self.wire = result, error, None

    def unwrap(self) -> dict:
        if self.error is not None:
            raise ApiError(*self.error)
        return self.result


def handler_for(op: str) -> Tuple[Callable, bool]:
    """Resolve an op name; raises :class:`ApiError` for unknown ops."""
    if op not in HANDLERS:
        raise ApiError(
            "unknown-op",
            f"unknown op {op!r} (known: {', '.join(sorted(HANDLERS))}, "
            f"plus subscribe/unsubscribe/shutdown)",
        )
    return HANDLERS[op]


def read_op(driver, op: str, params: dict):
    """Future of the :class:`Snapshot` of read ``op``: the one read
    path of the TCP server and :func:`call_op`.  Answered from the
    driver's memo when nothing changed since it was last computed."""
    fn, _ = handler_for(op)
    key = (op,)
    if op == "path":
        key = (op, _require(params, "src", int, "a DSN integer"),
               _require(params, "dst", int, "a DSN integer"))

    def snapshot(setup) -> Snapshot:
        try:
            result = fn(setup, driver, params)
        except ApiError as exc:
            return Snapshot(None, (exc.code, exc.message))
        result["version"] = driver.version
        return Snapshot(result, None)

    return driver.read(key, snapshot)


def call_op(driver, op: str, params: Optional[dict] = None):
    """Synchronous dispatch (tests and in-process tools).

    Runs sim-thread ops through the driver exactly as the server
    would; a read's result is the shared snapshot of its version, not
    a private copy — treat it as read-only.
    """
    fn, needs_sim = handler_for(op)
    params = params or {}
    if op in READS:
        return read_op(driver, op, params).result(30.0).unwrap()
    if needs_sim:
        return driver.call(lambda setup: fn(setup, driver, params))
    return fn(None, driver, params)
