"""HTTP/JSON front end for the evaluation service (raw asyncio streams).

The wire protocol is deliberately tiny — three routes, JSON bodies,
``Content-Length`` framing, optional keep-alive — implemented directly on
``asyncio.start_server`` so the service runs on the standard library alone
(the container has no aiohttp, and an evaluation RPC needs none of it):

``GET /v1/health``
    ``{"status": "ok", "service": "repro"}`` — liveness probe.
``GET /v1/stats``
    The service's :meth:`~repro.service.session.EvaluationService.stats`
    snapshot (dedup hit rate, LRU counters, batch occupancy, ...).
``POST /v1/evaluate``
    Body ``{"spec": {...StudySpec.to_dict...}, "method": "auto",
    "force": false}``.  Responds ``{"ok": true, "cells": [...]}`` with one
    entry per sweep cell: the evaluation payload
    (:meth:`Evaluation.to_experiment_result` encoding), the store key, the
    serving layer (``lru`` / ``store`` / ``inflight`` / ``computed``) and
    the elapsed compute seconds.  Spec errors return 400, engine errors
    500 — both as ``{"ok": false, "error": ...}``.

Because every connection funnels into one shared
:class:`~repro.service.session.EvaluationService`, concurrent clients get
the whole multi-tenant stack for free: identical in-flight cells
single-flight, hot cells serve from the LRU, and bursts coalesce into one
backend fan-out.

:class:`ServiceHTTPClient` is the matching minimal client (also raw
streams), used by the test suite and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.service.session import EvaluationService, SubmitOutcome

__all__ = ["EvaluationServer", "ServiceHTTPClient"]

#: Refuse request bodies beyond this size (a spec sweep is a few KiB).
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


class _PayloadTooLarge(Exception):
    """A request declared a body beyond :data:`MAX_BODY_BYTES`.

    Raised out of header parsing and answered with a real 413 — it must NOT
    be an ``IncompleteReadError`` subclass, which ``_handle`` treats as
    "client went away" and swallows without responding.
    """

    def __init__(self, declared: int) -> None:
        super().__init__(f"declared body of {declared} bytes")
        self.declared = declared


def _encode_outcome(outcome: SubmitOutcome) -> Dict[str, object]:
    """One response cell: the stored result encoding plus provenance."""
    return {
        "key": outcome.key,
        "method": outcome.method,
        "source": outcome.source,
        "elapsed_seconds": outcome.elapsed_seconds,
        "spec": outcome.spec.to_dict(),
        "result": outcome.evaluation.to_experiment_result().to_dict(),
        "rel_tol": outcome.evaluation.rel_tol,
    }


class EvaluationServer:
    """One listening socket in front of one shared service."""

    def __init__(self, service: EvaluationService, host: str = "127.0.0.1",
                 port: int = 8642) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.requests = 0

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        if self.port == 0:                   # ephemeral port: report reality
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening, let admitted work land, then close the backend."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()
        self.service.backend.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -------------------------------------------------------------- protocol
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _PayloadTooLarge as exc:
                    # Drain the declared body (bounded chunks, nothing is
                    # retained) so the client's in-flight upload doesn't die
                    # on a reset before it reads the response, then answer
                    # and close — the stream stays in sync either way.
                    self.requests += 1
                    remaining = exc.declared
                    while remaining > 0:
                        chunk = await reader.read(min(65536, remaining))
                        if not chunk:
                            break
                        remaining -= len(chunk)
                    await self._respond(
                        writer, 413,
                        {"ok": False,
                         "error": f"request body of {exc.declared} bytes "
                                  f"exceeds the {MAX_BODY_BYTES}-byte limit"},
                        keep_alive=False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                self.requests += 1
                status, payload = await self._route(method, path, body)
                keep_alive = headers.get("connection", "keep-alive") \
                    .lower() != "close"
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass                              # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Shutdown cancels handler tasks mid-close; the connection
                # is going away either way.
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, Dict[str, str],
                                                bytes]]:
        try:
            request_line = await reader.readline()
        except ConnectionError:
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge(length)
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _route(self, method: str, path: str, body: bytes
                     ) -> Tuple[int, Dict[str, object]]:
        if path == "/v1/health":
            if method != "GET":
                return 405, {"ok": False, "error": "health is GET-only"}
            return 200, {"status": "ok", "service": "repro"}
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"ok": False, "error": "stats is GET-only"}
            return 200, self.service.stats()
        if path == "/v1/evaluate":
            if method != "POST":
                return 405, {"ok": False, "error": "evaluate is POST-only"}
            return await self._evaluate(body)
        return 404, {"ok": False, "error": f"no route {path}"}

    async def _evaluate(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict) or "spec" not in payload:
                raise ValueError("body must be a JSON object with a 'spec'")
            spec = payload["spec"]
            method = str(payload.get("method", "auto"))
            force = bool(payload.get("force", False))
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"ok": False, "error": str(exc)}
        try:
            outcome = await self.service.submit(spec, method, force=force)
        except (KeyError, TypeError, ValueError) as exc:
            # Spec-shaped problems: the client sent something unservable.
            return 400, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:              # engine-side failure
            return 500, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return 200, {"ok": True,
                     "cells": [_encode_outcome(cell)
                               for cell in outcome.cells]}

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, object], keep_alive: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


class ServiceHTTPClient:
    """Minimal JSON-over-HTTP client matching :class:`EvaluationServer`.

    One persistent keep-alive connection per client instance (so a client
    maps onto one tenant), opened lazily on first request.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)

    async def request(self, method: str, path: str,
                      payload: Optional[Dict[str, object]] = None
                      ) -> Tuple[int, Dict[str, object]]:
        await self._connect()
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None \
            else json.dumps(payload).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\n"
                "\r\n").encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line.strip():
            # The server hung up (or sent nothing) instead of a status line;
            # drop the dead socket so the next request reconnects cleanly.
            await self.close()
            raise ConnectionError(
                "server closed the connection before sending a status line")
        status = int(status_line.decode("latin-1").split()[1])
        length = 0
        server_closes = False
        while True:
            line = await self._reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                server_closes = value.strip().lower() == "close"
        raw = await self._reader.readexactly(length) if length else b""
        if server_closes:
            # Honor the server's `Connection: close`: this socket will never
            # carry another response, so the next request must reconnect
            # rather than write into a half-closed stream.
            await self.close()
        return status, json.loads(raw.decode("utf-8")) if raw else {}

    async def health(self) -> Dict[str, object]:
        _status, payload = await self.request("GET", "/v1/health")
        return payload

    async def stats(self) -> Dict[str, object]:
        _status, payload = await self.request("GET", "/v1/stats")
        return payload

    async def evaluate(self, spec: Dict[str, object], method: str = "auto",
                       *, force: bool = False
                       ) -> Tuple[int, Dict[str, object]]:
        return await self.request("POST", "/v1/evaluate",
                                  {"spec": spec, "method": method,
                                   "force": force})

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None
            self._reader = None

