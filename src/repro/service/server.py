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

Requests from many clients are serviced concurrently by the asyncio
loop; the ones that touch simulation state await their turn on the
driver's command queue, so the kernel itself stays single-threaded.
A read (:data:`~repro.service.api.READS`) whose snapshot is of the
driver's current ``version`` skips the queue: it is answered here, on
the loop's thread, from bytes encoded once per version.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Set, Tuple

from . import api
from .driver import SimulationDriver

#: Feed events buffered per subscriber before drops are counted.
FEED_QUEUE_LIMIT = 4096

#: Longest request line, in bytes (asyncio's default stream limit).
FRAME_LIMIT = 2 ** 16


class FeedHub:
    """Fan-out point between the sim thread and subscribed clients.

    ``publish`` is the only thread-safe entry point: it stamps a
    sequence number and — if anybody is subscribed — hops onto the
    asyncio loop, which distributes the event to every subscriber
    queue.  A slow subscriber loses events (counted in ``dropped``)
    rather than stalling the feed.
    """

    def __init__(self):
        self._subscribers: Set[asyncio.Queue] = set()
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
        if not self._subscribers:
            # The hop is a self-pipe write and a wake-up of the loop
            # thread: one more GIL hand-over, for nobody.
            return
        try:
            loop.call_soon_threadsafe(self._fan_out, dict(event, seq=seq))
        except RuntimeError:  # loop shut down mid-publish
            pass

    def _fan_out(self, event: dict) -> None:
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                self.dropped += 1

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue(maxsize=FEED_QUEUE_LIMIT)
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self._subscribers.discard(queue)


def _dumps(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _encode(document: dict) -> bytes:
    return _dumps(document) + b"\n"


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at end of stream), or None once a
    line longer than the stream limit has been discarded whole."""
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        return None if oversized else line


def _error_of(exc: Exception) -> dict:
    """The ``error`` object of a failed request."""
    if isinstance(exc, api.ApiError):
        return {"code": exc.code, "message": exc.message}
    if isinstance(exc, json.JSONDecodeError):
        return {"code": "bad-json", "message": str(exc)}
    # Handler bug: report, stay up.
    return {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}


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
        self._connections: Set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self.hub.bind(asyncio.get_running_loop())
        # Handlers publish mutations/audits through the same feed the
        # tap uses (see api._feed).
        self.driver.feed = self.hub.publish
        tap = getattr(self.driver, "tap", None)
        if tap is not None:
            tap.sink = self.hub.publish
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=FRAME_LIMIT,
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)

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

    # -- per-connection ------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections_accepted += 1
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        # The selector transport reads with recv(max_size), 256 KiB by
        # default: one fresh bytes object that size per request, above
        # glibc's mmap threshold, so each read pays mmap + page faults
        # + munmap under the GIL unless something else happened to
        # raise the threshold (docs/SERVICE.md).  No frame is longer
        # than FRAME_LIMIT, so no read needs to be either.
        writer.transport.max_size = FRAME_LIMIT
        write_lock = asyncio.Lock()
        pump_task: Optional[asyncio.Task] = None

        async def send(line: bytes) -> None:
            async with write_lock:
                writer.write(line)
                await writer.drain()

        try:
            await send(_encode({
                "event": "hello",
                "schema": api.SCHEMA,
                "topology": self.driver.setup.spec.name,
                "algorithm": self.driver.setup.fm.algorithm_key,
            }))
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                if line is not None and not line.strip():
                    continue
                request_id = op = None
                try:
                    if line is None:
                        raise api.ApiError(
                            "frame-too-large",
                            f"request line over {FRAME_LIMIT} bytes")
                    document = json.loads(line)
                    if not isinstance(document, dict):
                        raise api.ApiError(
                            "bad-request", "request must be a JSON object"
                        )
                    request_id = document.get("id")
                    op = document.get("op")
                    if not isinstance(op, str):
                        raise api.ApiError(
                            "bad-request", "request needs a string 'op'"
                        )
                    if op == "subscribe":
                        if pump_task is None:
                            pump_task = asyncio.ensure_future(
                                self._pump(send))
                            # Its first step subscribes; only then
                            # answer, so no event published after the
                            # answer finds the hub without subscriber.
                            await asyncio.sleep(0)
                        result = b'{"subscribed":true}'
                    elif op == "unsubscribe":
                        if pump_task is not None:
                            pump_task.cancel()
                            pump_task = None
                        result = b'{"subscribed":false}'
                    elif op == "shutdown":
                        result = b'{"stopping":true}'
                    else:
                        result = await self._dispatch(op, document)
                    self.requests += 1
                    self.by_op[op] = self.by_op.get(op, 0) + 1
                    # The key order sort_keys emits, around bytes that
                    # are encoded once per snapshot.
                    response = (b'{"id":' + _dumps(request_id)
                                + b',"ok":true,"result":' + result + b"}\n")
                except Exception as exc:
                    self.errors += 1
                    response = _encode({"id": request_id, "ok": False,
                                        "error": _error_of(exc)})
                await send(response)
                if op == "shutdown":
                    self.request_shutdown()
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            if pump_task is not None:
                pump_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, op: str, params: dict) -> bytes:
        """The encoded ``result`` of one request."""
        if op in api.READS:
            future = api.read_op(self.driver, op, params)
            snapshot = (future.result() if future.done()
                        else await asyncio.wrap_future(future))
            if snapshot.wire is None:
                snapshot.wire = _dumps(snapshot.unwrap())
            return snapshot.wire
        fn, needs_sim = api.handler_for(op)
        if needs_sim:
            return _dumps(await asyncio.wrap_future(self.driver.submit(
                lambda setup: fn(setup, self.driver, params))))
        # Registry-only ops may still build large specs; keep them off
        # the event loop.
        return _dumps(await asyncio.to_thread(fn, None, self.driver, params))

    async def _pump(self, send) -> None:
        """Subscribed for as long as it runs; cancel to unsubscribe."""
        queue = self.hub.subscribe()
        try:
            while True:
                await send(_encode(await queue.get()))
        finally:
            self.hub.unsubscribe(queue)
