"""A small blocking NDJSON client for the fabric service.

Used by the tests, the benchmark, and as the reference implementation
of the wire protocol: connect, read the hello banner, then exchange
one JSON line per request/response.  Feed events that arrive between
responses are stashed and read back with :meth:`ServiceClient.next_event`.

The client is intentionally synchronous — one socket, one reader —
because that is what a benchmark worker or test wants.  Concurrency
comes from running many clients, exactly like real tools would.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional


class ServiceError(Exception):
    """An ``"ok": false`` response from the service."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServiceClient:
    """Blocking client for one service connection.

    Usable as a context manager::

        with ServiceClient(host, port) as client:
            status = client.request("status")
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._events: List[dict] = []
        #: The hello banner sent by the server on connect.
        self.hello = self._read_document()
        if self.hello.get("event") != "hello":
            raise ServiceError("bad-hello",
                               f"expected hello banner, got {self.hello!r}")
        #: Wire schema version announced by the server.
        self.schema = self.hello.get("schema")

    # -- wire ---------------------------------------------------------------
    def _read_document(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    # -- requests -----------------------------------------------------------
    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send ``op`` and return its result (raises :class:`ServiceError`).

        Feed events interleaved before the response are stashed for
        :meth:`next_event`.
        """
        self._next_id += 1
        request_id = self._next_id
        self._file.write(json.dumps(
            {"id": request_id, "op": op, **params}).encode() + b"\n")
        self._file.flush()
        while True:
            document = self._read_document()
            if "event" in document:
                self._events.append(document)
                continue
            if document.get("id") != request_id:
                continue  # stale response from an aborted exchange
            if document.get("ok"):
                return document["result"]
            error = document.get("error") or {}
            raise ServiceError(error.get("code", "unknown"),
                               error.get("message", "no message"))

    # -- failover verbs -----------------------------------------------------
    def kill_fm(self) -> Dict[str, Any]:
        """Remove the primary FM's host (requires a standby)."""
        return self.request("kill_fm")

    def promote_standby(self) -> Dict[str, Any]:
        """Promote the standby FM immediately; the takeover outcome
        arrives as a ``failover`` feed event."""
        return self.request("promote_standby")

    # -- event feed ---------------------------------------------------------
    def subscribe(self) -> Dict[str, Any]:
        return self.request("subscribe")

    def unsubscribe(self) -> Dict[str, Any]:
        return self.request("unsubscribe")

    def next_event(self, timeout: Optional[float] = None) -> dict:
        """Return the next feed event (stashed or fresh off the wire).

        Raises :class:`socket.timeout` if nothing arrives in time.
        """
        if self._events:
            return self._events.pop(0)
        previous = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            while True:
                document = self._read_document()
                if "event" in document:
                    return document
                # A response with no waiting request: drop it.
        finally:
            self._sock.settimeout(previous)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        for close in (self._file.close, self._sock.close):
            try:
                close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
