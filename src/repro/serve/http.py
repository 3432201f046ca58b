"""Shared HTTP/1.1 plumbing for the serving layer.

Both the single-node :class:`~repro.serve.server.ExperimentService`
and the cluster :class:`~repro.serve.cluster.CoordinatorService` speak
the same deliberately minimal dialect -- hand-rolled HTTP/1.1 over
``asyncio`` streams, one request per connection (``Connection:
close``), small JSON bodies -- so the framing lives here once:

- :func:`read_request` parses a request head + body off a stream.
- :func:`respond` writes a JSON (or raw-bytes) response.
- :func:`http_fetch` is the matching *async client*: the coordinator
  forwards jobs to workers and probes ``/healthz`` with it, and a
  worker registers itself with its coordinator through it, all
  without blocking the event loop (stdlib ``http.client`` is
  synchronous and would stall every other connection).

The 8 MiB body cap and 30 s read timeouts mirror the original server
limits; they are generous for spec documents and result records and
small enough to shrug off stuck peers.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

#: Largest request/response body either side will read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-read timeout for request heads and bodies.
READ_TIMEOUT_S = 30.0

REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
           404: "Not Found", 405: "Method Not Allowed",
           409: "Conflict", 410: "Gone", 429: "Too Many Requests",
           502: "Bad Gateway", 503: "Service Unavailable"}


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; ``(METHOD, path, body)`` or ``None`` on a
    malformed, oversized or closed stream."""
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT_S)
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        return None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        return None
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                return None
    body = b""
    if length:
        if length > MAX_BODY_BYTES:
            return None
        body = await asyncio.wait_for(
            reader.readexactly(length), timeout=READ_TIMEOUT_S)
    return method.upper(), path, body


async def respond(writer: asyncio.StreamWriter, status: int,
                  payload: Any, *, content_type: str = "application/json",
                  extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
    """Write one full response (JSON for dict/list, raw otherwise)."""
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    elif isinstance(payload, str):
        body = payload.encode()
    else:
        body = payload
    headers = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    headers.extend(f"{name}: {value}" for name, value in extra_headers)
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
    await writer.drain()


class FetchError(OSError):
    """The peer was unreachable or answered garbage (transport-level,
    as opposed to an HTTP error status, which :func:`http_fetch`
    returns normally)."""


async def http_fetch(host: str, port: int, method: str, path: str,
                     body: Optional[Dict[str, Any]] = None,
                     timeout: float = 30.0) -> Tuple[int, Dict[str, Any]]:
    """One async HTTP exchange; returns ``(status, json_doc)``.

    Raises :class:`FetchError` when the peer cannot be reached or the
    response does not frame -- callers treat that as "worker down",
    distinct from an HTTP error document.
    """
    payload = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Connection: close\r\n\r\n").encode()
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout)
    except (OSError, asyncio.TimeoutError) as exc:
        raise FetchError(f"cannot reach {host}:{port}: {exc}") from None
    try:
        writer.write(head + payload)
        await asyncio.wait_for(writer.drain(), timeout=timeout)
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    except (OSError, asyncio.TimeoutError) as exc:
        raise FetchError(f"request to {host}:{port} failed: {exc}") from None
    finally:
        try:
            writer.close()
        except OSError:
            pass
    sep = raw.find(b"\r\n\r\n")
    if sep < 0:
        raise FetchError(f"unframed response from {host}:{port}")
    status_line = raw[:sep].split(b"\r\n", 1)[0].decode("latin-1")
    try:
        status = int(status_line.split(" ", 2)[1])
    except (IndexError, ValueError):
        raise FetchError(
            f"bad status line from {host}:{port}: {status_line!r}") from None
    body_bytes = raw[sep + 4:]
    try:
        doc = json.loads(body_bytes.decode("utf-8") or "null")
    except (UnicodeDecodeError, ValueError):
        doc = {"error": body_bytes[:200].decode("utf-8", "replace")}
    if not isinstance(doc, dict):
        doc = {"value": doc}
    return status, doc
