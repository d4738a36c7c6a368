"""Asyncio front-end: line-delimited JSON over TCP, many clients.

One :class:`FabricService` wraps one
:class:`~repro.service.driver.SimulationDriver`.  Clients connect over
TCP and exchange newline-terminated JSON documents:

* on connect the server sends a hello banner
  ``{"event": "hello", "schema": "repro/service/v1.2", ...}``;
* each request line ``{"id": 7, "op": "topology", ...params}`` gets
  exactly one response line ``{"id": 7, "ok": true, "result": ...}``
  (or ``"ok": false`` with an ``error`` object — the connection
  survives request errors, a request line over :data:`FRAME_LIMIT`
  included);
* after a ``subscribe`` request the server additionally pushes feed
  events (``{"event": "pi5"|"span"|"mutation"|"audit", "seq": n,
  ...}``) as they happen; responses and events never interleave
  within a line.

Each connection is one :class:`asyncio.Protocol`; its requests are
answered strictly in order.  A read (:data:`~repro.service.api.READS`)
whose snapshot is of the driver's current ``version`` is answered
inside the loop's receive callback, from bytes encoded once per
version.  Anything else — a read miss, a mutation, a registry op —
parks the connection until the driver (or the executor) is done, so
the kernel itself stays single-threaded; other connections are served
meanwhile.
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import suppress
from functools import partial
from typing import Dict, Optional, Set, Tuple

from . import api
from .driver import DriverStopped, SimulationDriver

#: Longest request line, in bytes (asyncio's default stream limit).
FRAME_LIMIT = 2 ** 16


class FeedHub:
    """Fan-out point between the sim thread and subscribed clients.

    ``publish`` is the only thread-safe entry point: it stamps a
    sequence number and — if anybody is subscribed — hops onto the
    asyncio loop, which writes the event to every subscribed
    connection.  A subscriber that does not read loses events (counted
    in ``dropped``) rather than stalling the feed: while its transport
    has paused writing, events for it are dropped.
    """

    def __init__(self):
        #: Subscribed connections; the loop's thread adds and removes.
        self.subscribers: Set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lock = threading.Lock()
        self._seq = 0
        self.published = 0
        self.dropped = 0

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def publish(self, event: dict) -> None:
        """Thread-safe: forward ``event`` to every subscriber."""
        with self._lock:
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            self._seq += 1
            seq = self._seq
            self.published += 1
        if not self.subscribers:
            # The hop is a self-pipe write and a wake-up of the loop
            # thread: one more GIL hand-over, for nobody.
            return
        try:
            loop.call_soon_threadsafe(self._fan_out, dict(event, seq=seq))
        except RuntimeError:  # loop shut down mid-publish
            pass

    def _fan_out(self, event: dict) -> None:
        line = _encode(event)
        for connection in self.subscribers:
            if connection.paused:
                self.dropped += 1
            else:
                connection.transport.write(line)


def _dumps(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _encode(document: dict) -> bytes:
    return _dumps(document) + b"\n"


def _wire(snapshot: api.Snapshot) -> bytes:
    """A read's encoded result, encoded once per snapshot."""
    if snapshot.wire is None:
        snapshot.wire = _dumps(snapshot.unwrap())
    return snapshot.wire


def _call_soon(loop, callback, future) -> None:
    """Done callback of a request's future, on whichever thread
    completed it: ``callback(future)`` on the loop, one iteration
    later (``asyncio.wrap_future`` takes two)."""
    with suppress(RuntimeError):  # the loop has closed meanwhile
        loop.call_soon_threadsafe(callback, future)


def _error_of(exc: Exception) -> dict:
    """The ``error`` object of a failed request."""
    if isinstance(exc, api.ApiError):
        return {"code": exc.code, "message": exc.message}
    if isinstance(exc, json.JSONDecodeError):
        return {"code": "bad-json", "message": str(exc)}
    # A stopped driver's refusal, or a handler bug: report, stay up.
    code = "driver-stopped" if isinstance(exc, DriverStopped) else "internal"
    return {"code": code, "message": f"{type(exc).__name__}: {exc}"}


class FabricService:
    """The daemon: accepts clients, dispatches ops, streams the feed."""

    def __init__(self, driver: SimulationDriver,
                 host: str = "127.0.0.1", port: int = 0):
        self.driver = driver
        self.host = host
        self.port = port
        self.hub = FeedHub()
        #: Service-level stats, reported by :meth:`summary`.
        self.requests = 0
        self.errors = 0
        self.connections_accepted = 0
        self.by_op: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._connections: Set[_Connection] = set()

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        loop = asyncio.get_running_loop()
        self.hub.bind(loop)
        # Handlers publish mutations/audits through the same feed the
        # tap uses (see api._feed).
        self.driver.feed = self.hub.publish
        tap = getattr(self.driver, "tap", None)
        if tap is not None:
            tap.sink = self.hub.publish
        self._server = await loop.create_server(
            partial(_Connection, self), self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        for connection in list(self._connections):
            connection.close()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (safe from the loop's thread)."""
        self._shutdown.set()

    def summary(self) -> dict:
        """One-line-able account of what the daemon did."""
        return {
            "connections": self.connections_accepted,
            "requests": self.requests,
            "errors": self.errors,
            "events_published": self.hub.published,
            "events_dropped": self.hub.dropped,
            "by_op": dict(sorted(self.by_op.items())),
            "version": self.driver.version,
            "events_stepped": self.driver.events_stepped,
            "batches": self.driver.batches,
            "memo_hits": self.driver.memo_hits,
            "memo_misses": self.driver.memo_misses,
        }


class _Connection(asyncio.Protocol):
    """One client: splits request lines, answers them in order.

    A request that cannot be answered inside the receive callback
    (read miss, mutation, registry op) makes the connection *busy*:
    later lines stay buffered until its answer is written, from the
    future's done callback.  While the transport has paused writing
    (the peer does not read) the connection answers nothing more and
    stops reading, so neither buffer grows without bound.
    """

    def __init__(self, service: FabricService):
        self.service = service
        #: Set while the transport has paused writing; read by the hub.
        self.paused = False
        self._buffer = bytearray()
        #: ``_oversized``: discarding a line longer than FRAME_LIMIT up
        #: to its newline; ``_busy``: a request awaits its future.
        self._oversized = self._busy = self._eof = False

    # -- transport callbacks -------------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        # The selector transport reads with recv(max_size), 256 KiB by
        # default: one fresh bytes object that size per request, above
        # glibc's mmap threshold, so each read pays mmap + page faults
        # + munmap under the GIL unless something else happened to
        # raise the threshold (docs/SERVICE.md).  No frame is longer
        # than FRAME_LIMIT, so no read needs to be either.
        transport.max_size = FRAME_LIMIT
        self.transport = transport
        service = self.service
        service.connections_accepted += 1
        service._connections.add(self)
        setup = service.driver.setup
        transport.write(_encode({"event": "hello", "schema": api.SCHEMA,
                                 "topology": setup.spec.name,
                                 "algorithm": setup.fm.algorithm_key}))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.service.hub.subscribers.discard(self)
        self.service._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()
        if len(self._buffer) > FRAME_LIMIT:
            # Busy or paused with a backlog: let TCP hold the rest.
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        # An unterminated last line is a request too.
        self._buffer += b"\n"
        self._eof = True
        self._serve()
        return True  # half-open: the last requests are still answered

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self._serve()

    def close(self) -> None:
        self.service.hub.subscribers.discard(self)
        self.transport.close()

    # -- requests ------------------------------------------------------------
    def _serve(self) -> None:
        """Answer buffered lines in order until one has to wait, the
        buffer holds no complete line, or the peer stops reading."""
        buffer = self._buffer
        while not (self._busy or self.paused
                   or self.transport.is_closing()):
            end = buffer.find(b"\n") + 1
            if not end:
                if len(buffer) > FRAME_LIMIT:
                    buffer.clear()
                    self._oversized = True
                # At end of stream every line has been answered.
                return (self.close() if self._eof
                        else self.transport.resume_reading())
            line = buffer[:end]
            del buffer[:end]
            if self._oversized or end > FRAME_LIMIT + 1:
                self._oversized = False
                self._request(None)
            elif not line.isspace():
                self._request(line)

    def _request(self, line: Optional[bytearray]) -> None:
        """Answer one request line (``None``: one over the limit), or
        leave the connection busy until its future is done."""
        driver = self.service.driver
        request_id = op = future = None
        try:
            if line is None:
                raise api.ApiError(
                    "frame-too-large", f"request line over {FRAME_LIMIT} bytes")
            document = json.loads(line)
            if not isinstance(document, dict):
                raise api.ApiError(
                    "bad-request", "request must be a JSON object")
            request_id, op = document.get("id"), document.get("op")
            if not isinstance(op, str):
                raise api.ApiError(
                    "bad-request", "request needs a string 'op'")
            if op == "subscribe":
                # The hub knows a subscriber before its answer goes
                # out: no event published after the answer misses it.
                self.service.hub.subscribers.add(self)
                result = b'{"subscribed":true}'
            elif op == "unsubscribe":
                self.service.hub.subscribers.discard(self)
                result = b'{"subscribed":false}'
            elif op == "shutdown":
                result = b'{"stopping":true}'
            elif op in api.READS:
                future, encode = api.read_op(driver, op, document), _wire
            else:
                fn, needs_sim = api.handler_for(op)
                encode = _dumps
                if needs_sim:
                    future = driver.submit(
                        lambda setup: fn(setup, driver, document))
                else:
                    # Registry-only ops may still build large specs;
                    # keep them off the event loop.
                    future = asyncio.get_running_loop().run_in_executor(
                        None, fn, None, driver, document)
        except Exception as exc:
            result = exc
        if future is None:
            self._reply(request_id, op, result)
        elif future.done():  # a memo hit, or a driver that stopped
            self._finish(request_id, op, encode, future)
        else:
            self._busy = True
            future.add_done_callback(partial(
                _call_soon, asyncio.get_running_loop(),
                partial(self._resume, request_id, op, encode)))

    def _resume(self, *request) -> None:
        self._busy = False
        self._finish(*request)
        self._serve()

    def _finish(self, request_id, op: str, encode, future) -> None:
        try:
            result = encode(future.result())
        except Exception as exc:
            result = exc
        self._reply(request_id, op, result)

    def _reply(self, request_id, op: Optional[str], result) -> None:
        """Write the response to one request: ``result`` is its encoded
        result, or the exception it failed with."""
        service = self.service
        if isinstance(result, Exception):
            service.errors += 1
            response = _encode({"id": request_id, "ok": False,
                                "error": _error_of(result)})
        else:
            service.requests += 1
            service.by_op[op] = service.by_op.get(op, 0) + 1
            # The key order sort_keys emits, around bytes that are
            # encoded once per snapshot.
            response = (
                b'{"id":' + (b"%d" % request_id if type(request_id) is int
                             else _dumps(request_id))
                + b',"ok":true,"result":' + result + b"}\n")
        # A peer gone meanwhile: the transport drops the bytes.
        self.transport.write(response)
        if op == "shutdown":
            self.close()
            service.request_shutdown()
