"""TCP front-end: newline-delimited JSON over asyncio streams.

A thin network face for :class:`~repro.service.VlsaService`, stdlib
only.  One JSON object per line in, one per line out:

* ``{"a": 123, "b": 456}`` (optional ``"id"``, echoed back) →
  ``{"id": ..., "sum": 579, "cout": 0, "stalled": false,
  "latency_cycles": 1, "accept_cycle": 17}``
* ``{"pairs": [[1, 2], [3, 4]]}`` → ``{"id": ..., "sums": [...],
  "couts": [...], "stalled": [...], "latencies": [...],
  "accept_cycle": 17}`` — one admitted batch, one shard, one reply;
  this is the verb external load generators use to drive the cluster's
  coalesced wire path at full depth.
* ``{"cmd": "metrics"}`` → ``{"metrics": {...}}`` (registry snapshot)
* ``{"cmd": "prometheus"}`` → ``{"prometheus": "..."}`` (text format)
* ``{"cmd": "info"}`` → service configuration
* malformed input / overload / timeout / closed / unavailable →
  ``{"id": ..., "error": "..."}`` with a machine-readable ``code``
  (``unavailable`` is any other service error, e.g. a cluster front
  end with no live worker).
* a request line longer than 64 KiB (asyncio's default
  ``StreamReader`` limit, the server's stated maximum) →
  ``{"error": "...", "code": "too_large"}``, counted in
  ``requests_too_large_total``; the server then closes the connection,
  since the rest of that line cannot be framed.

Requests on one connection are answered in order; the service's
admission control applies per request, so an overloaded server degrades
by rejecting (with ``code: "overloaded"``) rather than by buffering
without bound.

When `uvloop <https://github.com/MagicStack/uvloop>`_ is installed,
:func:`install_uvloop` swaps in its event-loop policy — the CLI calls
it before serving; everything here is stdlib-only and runs identically
on the default loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from .service import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    VlsaService,
)

__all__ = ["VlsaServer", "serve_tcp", "install_uvloop"]


def install_uvloop() -> bool:
    """Adopt uvloop's event-loop policy when available.

    Returns True when uvloop is now the policy.  Missing uvloop is not
    an error — the container may simply not ship it — so callers can
    unconditionally invoke this before ``asyncio.run``.
    """
    try:
        import uvloop
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


class VlsaServer:
    """Serves a :class:`VlsaService` over TCP as JSON lines.

    Any object with the service's submission surface works — in
    particular a :class:`~repro.cluster.ClusterRouter`, which makes
    this the cluster's network front end too.

    Args:
        service: The (started or not-yet-started) service to expose.
        host, port: Bind address (``port=0`` picks a free port).
        request_timeout: Per-request deadline passed to ``submit``.
    """

    def __init__(self, service: VlsaService, host: str = "127.0.0.1",
                 port: int = 0, request_timeout: Optional[float] = 30.0):
        self.service = service
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self._server: "Optional[asyncio.AbstractServer]" = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` once started."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "VlsaServer":
        """Start the service (if needed) and begin listening."""
        await self.service.start()
        wait_ready = getattr(self.service, "wait_ready", None)
        if wait_ready is not None:  # cluster fronts wait for the pool
            await wait_ready()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self.address[1]
        self.service.tracer.emit("server_listening", host=self.host,
                                 port=self.port)
        return self

    async def stop(self) -> None:
        """Stop listening, then stop the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def __aenter__(self) -> "VlsaServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        """Block until the listening socket is closed."""
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.service.registry.counter(
            "connections_total", "TCP connections accepted").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # line over the StreamReader limit
                    self.service.registry.counter(
                        "requests_too_large_total",
                        "request lines over the 64 KiB limit").inc()
                    reply = {"error": "request line exceeds the 64 KiB "
                                      "limit", "code": "too_large"}
                    writer.write(json.dumps(reply).encode() + b"\n")
                    # Half-close, then discard the line's tail until the
                    # client closes: closing with unread input would
                    # reset the connection and could drop the reply.
                    writer.write_eof()
                    while await reader.read(1 << 16):
                        pass
                    break
                if not line:
                    break
                reply = await self._handle_line(line)
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: bytes) -> dict:
        try:
            msg = json.loads(line)
            if not isinstance(msg, dict):
                raise ValueError("expected a JSON object")
        except ValueError as exc:
            return {"error": str(exc), "code": "bad_request"}
        req_id = msg.get("id")

        cmd = msg.get("cmd")
        if cmd == "metrics":
            return {"id": req_id, "metrics": self.service.metrics_json()}
        if cmd == "prometheus":
            return {"id": req_id,
                    "prometheus": self.service.metrics_prometheus()}
        if cmd == "info":
            info = dict(self.service.describe())
            info["id"] = req_id
            return info
        if cmd is not None:
            return {"id": req_id, "error": f"unknown cmd {cmd!r}",
                    "code": "bad_request"}

        if "pairs" in msg:
            return await self._handle_batch(req_id, msg["pairs"])

        if "a" not in msg or "b" not in msg:
            return {"id": req_id, "error": "need operands 'a' and 'b'",
                    "code": "bad_request"}
        try:
            a, b = int(msg["a"]), int(msg["b"])
        except (TypeError, ValueError, OverflowError):  # 1e400 -> inf
            return {"id": req_id, "error": "operands must be integers",
                    "code": "bad_request"}
        try:
            resp = await self.service.submit(
                a, b, timeout=self.request_timeout)
        except ServiceOverloadedError as exc:
            return {"id": req_id, "error": str(exc), "code": "overloaded"}
        except RequestTimeoutError as exc:
            return {"id": req_id, "error": str(exc), "code": "timeout"}
        except ServiceClosedError as exc:
            return {"id": req_id, "error": str(exc), "code": "closed"}
        except ServiceError as exc:  # e.g. no live cluster worker
            return {"id": req_id, "error": str(exc), "code": "unavailable"}
        return {"id": req_id, "sum": resp.sum_out, "cout": resp.cout,
                "stalled": resp.stalled,
                "latency_cycles": resp.latency_cycles,
                "accept_cycle": resp.accept_cycle}

    async def _handle_batch(self, req_id, pairs) -> dict:
        try:
            coerced = [(int(a), int(b)) for a, b in pairs]
        except (TypeError, ValueError, OverflowError):
            return {"id": req_id, "code": "bad_request",
                    "error": "pairs must be [[a, b], ...] of integers"}
        try:
            resp = await self.service.submit_batch(
                coerced, timeout=self.request_timeout)
        except ServiceOverloadedError as exc:
            return {"id": req_id, "error": str(exc), "code": "overloaded"}
        except RequestTimeoutError as exc:
            return {"id": req_id, "error": str(exc), "code": "timeout"}
        except ServiceClosedError as exc:
            return {"id": req_id, "error": str(exc), "code": "closed"}
        except ServiceError as exc:  # e.g. no live cluster worker
            return {"id": req_id, "error": str(exc), "code": "unavailable"}
        return {"id": req_id, "sums": list(resp.sums),
                "couts": list(resp.couts),
                "stalled": [bool(f) for f in resp.stalled],
                "latencies": list(resp.latencies),
                "accept_cycle": resp.accept_cycle}


async def serve_tcp(service: VlsaService, host: str = "127.0.0.1",
                    port: int = 0,
                    duration: Optional[float] = None) -> VlsaServer:
    """Run a :class:`VlsaServer` until *duration* elapses (or forever).

    Returns:
        The stopped server (metrics remain inspectable).
    """
    server = VlsaServer(service, host=host, port=port)
    async with server:
        if duration is None:
            await server.serve_forever()
        else:
            await asyncio.sleep(duration)
    return server
