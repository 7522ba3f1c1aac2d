"""The wire protocol of the query service.

Newline-delimited JSON: every request and every response is one JSON
object on one line, UTF-8 encoded.  Requests carry a caller-chosen
``id`` that the matching response echoes back — responses may arrive
out of request order (the server handles every request concurrently, so
a pipelined burst of selections coalesces into one micro-batch), and
the ``id`` is how callers re-associate them.

Request shape::

    {"id": 7, "op": "select", "workspace": "default", "method": "MND"}

Response shape::

    {"id": 7, "ok": true, "result": {...}, "cached": false, ...}
    {"id": 8, "ok": false, "error": {"code": "queue_full", "message": "..."}}

Operations: ``select`` (answer one query), ``evaluate`` (report on
specific candidates), ``update`` (mutate a dynamic workspace),
``stats`` (service counters; optional ``prefix`` widens the registry
view), ``health`` (liveness/drain state), ``metrics`` (OpenMetrics
text exposition), ``trace`` (look up finished request traces) and
``partials`` (one workspace's full ``dr`` vector plus I/O snapshot —
the scatter half of the shard coordinator's exact merge, see
:mod:`repro.shard`).

Any request may carry a caller-chosen ``trace_id`` string; the server
correlates its internal spans under it and echoes it on the response
(minting one when absent), so a slow answer can be investigated after
the fact with the ``trace`` op.

Floats cross the wire through ``json``'s ``repr``-based formatting,
which round-trips every finite IEEE-754 double exactly — so a ``dr``
value read back from the wire is *byte-identical* to the in-process
one, and the parity tests can (and do) compare with ``==``, not with a
tolerance.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.core.types import SelectionResult, Site

#: Protocol revision, echoed by ``health``.  Bump on any incompatible
#: change to request/response shapes.
PROTOCOL_VERSION = 1

#: The operations a server understands.
OPERATIONS = (
    "select",
    "evaluate",
    "update",
    "stats",
    "health",
    "metrics",
    "trace",
    "partials",
)

# ----------------------------------------------------------------------
# Error codes
# ----------------------------------------------------------------------
E_BAD_REQUEST = "bad_request"
E_UNKNOWN_WORKSPACE = "unknown_workspace"
E_UNKNOWN_METHOD = "unknown_method"
E_QUEUE_FULL = "queue_full"
E_DEADLINE_EXCEEDED = "deadline_exceeded"
E_SHUTTING_DOWN = "shutting_down"
E_UNSUPPORTED = "unsupported"
E_INTERNAL = "internal"
#: A shard coordinator could not reach (or lost) one of its shard
#: servers mid-scatter.  The coordinator never serves a partial answer:
#: the whole request fails with this code until the shard rejoins.
E_SHARD_UNAVAILABLE = "shard_unavailable"
#: Client-side only: the TCP connection itself failed (refused, reset,
#: mid-request EOF, timed out).  Never sent by a server — there is no
#: connection left to send it on — but carried by the same typed-error
#: taxonomy so callers and the load generator account it uniformly.
E_CONNECTION = "connection"


class ServiceError(Exception):
    """A protocol-level failure with a machine-readable code.

    Raised by the server while handling a request (turned into an
    ``ok: false`` response) and re-raised by the client when it reads
    one back.
    """

    code = E_INTERNAL

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        if code is not None:
            self.code = code

    @property
    def message(self) -> str:
        return str(self)


class BadRequestError(ServiceError):
    code = E_BAD_REQUEST


class UnknownWorkspaceError(ServiceError):
    code = E_UNKNOWN_WORKSPACE


class UnknownMethodError(ServiceError):
    code = E_UNKNOWN_METHOD


class QueueFullError(ServiceError):
    code = E_QUEUE_FULL


class DeadlineExceededError(ServiceError):
    code = E_DEADLINE_EXCEEDED


class ShuttingDownError(ServiceError):
    code = E_SHUTTING_DOWN


class UnsupportedError(ServiceError):
    code = E_UNSUPPORTED


class ShardUnavailableError(ServiceError):
    """A scatter-gather fan-out lost a shard (see :mod:`repro.shard`)."""

    code = E_SHARD_UNAVAILABLE


class ClientConnectionError(ServiceError, ConnectionError):
    """The transport failed under the client (refused, reset, EOF).

    Subclasses :class:`ConnectionError` too, so pre-existing callers
    that catch the builtin keep working; new callers get the typed
    ``code`` (``"connection"``) the error taxonomy promises.  Not in
    :data:`_ERROR_TYPES` on purpose: it never crosses the wire.
    """

    code = E_CONNECTION


_ERROR_TYPES = {
    cls.code: cls
    for cls in (
        BadRequestError,
        UnknownWorkspaceError,
        UnknownMethodError,
        QueueFullError,
        DeadlineExceededError,
        ShuttingDownError,
        UnsupportedError,
        ShardUnavailableError,
    )
}


def error_from_wire(error: dict) -> ServiceError:
    """Rebuild the typed error a response's ``error`` object describes."""
    code = error.get("code", E_INTERNAL)
    message = error.get("message", "unknown service error")
    cls = _ERROR_TYPES.get(code, ServiceError)
    return cls(message, code=code)


# ----------------------------------------------------------------------
# Line framing
# ----------------------------------------------------------------------
def encode(message: dict) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


class _NonFiniteNumber(ValueError):
    """A ``NaN``/``Infinity``/``-Infinity`` literal, which JSON lacks."""


def _reject_constant(name: str) -> Any:
    raise _NonFiniteNumber(name)


#: Python's json accepts the three non-finite literals by default; this
#: decoder refuses them.  Built once: ``json.loads`` with a keyword
#: argument builds a new decoder on every call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _lenient_id(line: str) -> Any:
    """The ``id`` of a line the strict decoder refused, if it has one."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError:
        return None
    return message.get("id") if isinstance(message, dict) else None


def decode(line: bytes | str) -> dict:
    """Parse one line into a message dict.

    Raises :class:`BadRequestError` on anything that is not a JSON
    object, including one that carries ``NaN`` or ``Infinity`` — the
    server answers those with a ``bad_request`` error (echoing the
    message's ``id`` when it has one) rather than dropping the
    connection.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise BadRequestError(f"request is not valid JSON: {exc}") from None
    except _NonFiniteNumber as exc:
        error = BadRequestError(
            f"request is not valid JSON: {exc} is not a JSON number"
        )
        error.request_id = _lenient_id(line)
        raise error from None
    if not isinstance(message, dict):
        raise BadRequestError("request must be a JSON object")
    return message


def ok_response(request_id: Any, result: Any, **extra: Any) -> dict:
    response = {"id": request_id, "ok": True, "result": result}
    response.update(extra)
    return response


def error_response(request_id: Any, error: ServiceError) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": error.code, "message": error.message},
    }


# ----------------------------------------------------------------------
# SelectionResult <-> wire
# ----------------------------------------------------------------------
def selection_to_wire(result: SelectionResult) -> dict:
    """A :class:`SelectionResult` as a JSON-safe dict."""
    return {
        "method": result.method,
        "location": {
            "sid": result.location.sid,
            "x": result.location.x,
            "y": result.location.y,
        },
        "dr": result.dr,
        "elapsed_s": result.elapsed_s,
        "cpu_s": result.cpu_s,
        "io_total": result.io_total,
        "io_reads": dict(result.io_reads),
        "index_pages": result.index_pages,
    }


def selection_from_wire(data: dict) -> SelectionResult:
    """The inverse of :func:`selection_to_wire` (exact round-trip)."""
    loc = data["location"]
    return SelectionResult(
        method=data["method"],
        location=Site(int(loc["sid"]), float(loc["x"]), float(loc["y"])),
        dr=float(data["dr"]),
        elapsed_s=float(data["elapsed_s"]),
        cpu_s=float(data["cpu_s"]),
        io_total=int(data["io_total"]),
        io_reads={str(k): int(v) for k, v in data.get("io_reads", {}).items()},
        index_pages=int(data.get("index_pages", 0)),
    )
