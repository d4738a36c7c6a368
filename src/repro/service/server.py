"""Selector front-end: line-delimited JSON over TCP, many clients.

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

The service runs its own event loop on one thread: a
:class:`selectors.DefaultSelector`, and a queue of callbacks that other
threads hand it with :meth:`FabricService.call_soon_threadsafe`.  Each
connection is one :class:`_Connection`, which owns its non-blocking
socket and its buffers; its requests are answered strictly in order.  A
read (:data:`~repro.service.api.READS`) whose snapshot is of the
driver's current ``version`` is answered inside the loop's receive
callback, from bytes encoded once per version.  Anything else — a read miss, a mutation, a registry op —
parks the connection until the driver (or the registry thread) is
done, so the kernel itself stays single-threaded; other connections
are served meanwhile.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from functools import partial
from typing import Dict, Optional, Set, Tuple

from . import api
from .driver import DriverStopped, SimulationDriver

#: Longest request line, in bytes, and the most a connection reads at
#: once.
FRAME_LIMIT = 2 ** 16

#: Unsent bytes above which a connection stops answering and reading,
#: and at or below which it starts again.
HIGH_WATER, LOW_WATER = 64 * 1024, 16 * 1024

READ, WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class FeedHub:
    """Fan-out point between the sim thread and subscribed clients.

    ``publish`` is the only thread-safe entry point: it stamps a
    sequence number and — if anybody is subscribed — hops onto the
    service's loop, which writes the event to every subscribed
    connection.  A subscriber that does not read loses events (counted
    in ``dropped``) rather than stalling the feed: while its connection
    has paused, events for it are dropped.
    """

    def __init__(self):
        #: Subscribed connections; the loop's thread adds and removes.
        self.subscribers: Set[_Connection] = set()
        #: The service whose loop writes to them, while it runs.
        self._loop: Optional[FabricService] = None
        self._lock = threading.Lock()
        self._seq = 0
        self.published = 0
        self.dropped = 0

    def bind(self, loop: Optional[FabricService]) -> None:
        self._loop = loop

    def publish(self, event: dict) -> None:
        """Thread-safe: forward ``event`` to every subscriber."""
        with self._lock:
            loop = self._loop
            if loop is None:
                return
            self._seq += 1
            seq = self._seq
            self.published += 1
        # The hop is a socket write and a wake-up of the loop thread:
        # one more GIL hand-over, which nobody needs without subscribers.
        if self.subscribers:
            loop.call_soon_threadsafe(self._fan_out, dict(event, seq=seq))

    def _fan_out(self, event: dict) -> None:
        line = _encode(event)
        # A write that finds its peer gone unsubscribes that connection.
        for connection in tuple(self.subscribers):
            if connection.paused:
                self.dropped += 1
            else:
                connection.write(line)


def _dumps(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _encode(document: dict) -> bytes:
    return _dumps(document) + b"\n"


def _wire(snapshot: api.Snapshot) -> bytes:
    """A read's encoded result, encoded once per snapshot."""
    if snapshot.wire is None:
        snapshot.wire = _dumps(snapshot.unwrap())
    return snapshot.wire


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
        #: Loop callbacks that raised (each closed its connection).
        self.failures = 0
        self._connections: Set[_Connection] = set()
        #: ``(callback, *args)`` queued for the loop by any thread.
        self._calls: deque = deque()
        self._running = True
        #: Runs the registry-only ops: off the loop and off the driver.
        self._registry = ThreadPoolExecutor(1, "service-registry")

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._listener = socket.create_server((self.host, self.port), family=(
            socket.AF_INET6 if ":" in self.host else socket.AF_INET))
        # The loop's wake-up: a byte on this pair.
        self._wake, self._waker = socket.socketpair()
        for sock in (self._listener, self._wake, self._waker):
            sock.setblocking(False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self._listener, READ, self._accept)
        self.selector.register(self._wake, READ,
                               lambda _events: self._wake.recv(4096))
        self.hub.bind(self)
        # Handlers publish mutations/audits through the same feed the
        # tap uses (see api._feed).
        self.driver.feed = self.hub.publish
        return self._listener.getsockname()[:2]

    def serve_until_shutdown(self) -> None:
        """Run the loop until a ``shutdown`` op (or
        :meth:`request_shutdown`), then close every connection."""
        while self._running:
            for key, events in self.selector.select():
                self._call(key.data, events)
            while self._calls:
                self._call(*self._calls.popleft())
        self._registry.shutdown(wait=False)
        self.hub.bind(None)
        for connection in list(self._connections):
            connection.abort()
        for closable in (self._listener, self._wake, self._waker,
                         self.selector):
            closable.close()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (safe from any thread)."""
        self.call_soon_threadsafe(setattr, self, "_running", False)

    # -- the loop ------------------------------------------------------------
    def call_soon_threadsafe(self, callback, *args) -> None:
        """Run ``callback(*args)`` on the loop's thread, from any
        thread; once the loop has stopped, nothing runs it."""
        self._calls.append((callback, *args))
        # Full: a wake-up is pending anyway.  Closed: nobody listens.
        with suppress(OSError):
            self._waker.send(b"\0")

    def _call(self, callback, *args) -> None:
        """Run one loop callback: one that raises is counted and
        closes the connection it belongs to; the loop carries on."""
        try:
            callback(*args)
        except Exception:
            self.failures += 1
            sys.excepthook(*sys.exc_info())  # the traceback, on stderr
            # A connection's callback: close that connection.
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, _Connection):
                owner.abort()

    def _accept(self, _events) -> None:
        sock, _ = self._listener.accept()
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _Connection(self, sock)

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


class _Connection:
    """One client on the service's loop: its non-blocking socket, the
    request lines it has not answered and the bytes its peer has not
    taken.

    It reads at most :data:`FRAME_LIMIT` bytes at a time, splits request
    lines and answers them in order.  A request that cannot be answered
    inside the receive callback (read miss, mutation, registry op) makes
    the connection *busy*: later lines stay buffered until its answer is
    written, from the future's done callback.  What the kernel does not
    take at once it keeps: above :data:`HIGH_WATER` unsent bytes the
    connection *pauses* — answers nothing more and stops reading, so
    neither buffer grows without bound — and at :data:`LOW_WATER` it
    resumes.  An error on the socket means the peer went: the
    connection closes, and later writes are dropped.
    """

    def __init__(self, service: FabricService, sock: socket.socket):
        self.service, self.sock = service, sock
        #: Set above HIGH_WATER unsent bytes; read by the hub.
        self.paused = False
        #: Request bytes not yet answered; answer bytes not yet sent.
        self._in, self._out = bytearray(), bytearray()
        self._reading, self.closing, self._events = True, False, 0
        #: ``_oversized``: discarding a line longer than FRAME_LIMIT up
        #: to its newline; ``_busy``: a request awaits its future.
        self._oversized = self._busy = self._eof = False
        service.connections_accepted += 1
        service._connections.add(self)
        setup = service.driver.setup
        self.write(_encode({"event": "hello", "schema": api.SCHEMA,
                            "topology": setup.spec.name,
                            "algorithm": setup.fm.algorithm_key}))

    # -- the socket ----------------------------------------------------------
    def _watch(self) -> None:
        """Ask the selector for the events the socket waits on now."""
        events = (READ * (self._reading and not self.closing)
                  | WRITE * bool(self._out))
        if events != self._events:
            if self._events:
                self.service.selector.unregister(self.sock)
            if events:
                self.service.selector.register(self.sock, events, self._ready)
            self._events = events

    def _read(self, on: bool) -> None:
        """Resume (``True``) or pause reading."""
        self._reading = on
        self._watch()

    def write(self, data: bytes) -> None:
        if self.sock.fileno() >= 0:
            self._out += data
            self._flush()

    def close(self) -> None:
        """Stop reading; close once every buffered byte is sent."""
        self.service.hub.subscribers.discard(self)
        self.closing = True
        self._flush()

    def abort(self) -> None:
        """Close now, dropping unsent bytes."""
        if self.sock.fileno() >= 0:
            self.closing = True
            self._out.clear()
            self._watch()
            self.sock.close()
            self.service.hub.subscribers.discard(self)
            self.service._connections.discard(self)

    def _ready(self, events: int) -> None:
        """Selector callback: the socket can be written or read."""
        if events & WRITE:
            self._flush()
        if not (events & READ and self._reading and not self.closing):
            return
        try:
            data = self.sock.recv(FRAME_LIMIT)
        except BlockingIOError:
            return
        except OSError:
            return self.abort()
        if not data:
            self._read(False)
        self._received(data)

    def _flush(self) -> None:
        try:
            del self._out[:self.sock.send(self._out)]
        except BlockingIOError:
            pass
        except OSError:
            return self.abort()
        if self.closing and not self._out:
            return self.abort()
        self._watch()
        if not self.paused and len(self._out) > HIGH_WATER:
            self.paused = True
            self._read(False)
        elif self.paused and len(self._out) <= LOW_WATER:
            self.paused = False
            self._serve()

    def _received(self, data: bytes) -> None:
        """Bytes from the peer; ``b""`` at end of stream, where an
        unterminated last line is a request too and the requests before
        it are still answered (half-open)."""
        if not data:
            data, self._eof = b"\n", True
        self._in += data
        self._serve()
        if len(self._in) > FRAME_LIMIT:
            # Busy or paused with a backlog: let TCP hold the rest.
            self._read(False)

    # -- requests ------------------------------------------------------------
    def _serve(self) -> None:
        """Answer buffered lines in order until one has to wait, the
        buffer holds no complete line, or the peer stops reading."""
        buffer = self._in
        while not (self._busy or self.paused or self.closing):
            end = buffer.find(b"\n") + 1
            if not end:
                if len(buffer) > FRAME_LIMIT:
                    buffer.clear()
                    self._oversized = True
                # At end of stream every line has been answered.
                return self.close() if self._eof else self._read(True)
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
                    # Registry-only ops may still build large specs.
                    future = self.service._registry.submit(
                        fn, None, driver, document)
        except Exception as exc:
            result = exc
        if future is None:
            self._reply(request_id, op, result)
        elif future.done():  # a memo hit, or a driver that stopped
            self._finish(request_id, op, encode, future)
        else:
            # Done on whichever thread completed it: resume on the
            # loop, one iteration later.
            self._busy = True
            future.add_done_callback(partial(
                self.service.call_soon_threadsafe, self._resume,
                request_id, op, encode))

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
        # A peer gone meanwhile: ``write`` drops the bytes.
        self.write(response)
        if op == "shutdown":
            self.close()
            service.request_shutdown()
