"""Wire protocol of the serving tier: newline-delimited JSON messages.

One request line in, one response line out, over any stream transport —
stdlib ``asyncio`` streams inside the tier, a plain blocking socket for
simple clients (:class:`SyncConnection`).  No third-party HTTP stack is
required; the framing is a single JSON object per line (LF-terminated,
UTF-8), which keeps the protocol greppable and `nc`-able.

Requests carry an ``op`` field; responses carry ``ok`` (``true`` with
the op's payload, or ``false`` with ``error`` / ``error_type``).  Ops
understood by shard workers and the router front-end:

========  ==========================================================
op        request payload
========  ==========================================================
probe     ``dataset``, ``epsilon``, ``algorithm``, ``config``,
          ``ids`` (probe identifiers), ``boxes`` (``[lo..., hi...]``
          flat corner lists), ``masks`` + ``full_mask`` (two-layer
          ownership filter; shard workers only); optionally
          ``geometry`` (``"exact"`` refines against registered
          shapes) and ``shapes`` (exact probe payloads parallel to
          ``boxes``, ``null`` for box-only entries)
explain   same fields as ``probe`` (``masks``/``full_mask`` unused);
          returns the optimizer :class:`~repro.optimizer.plan.Plan`
          the identical probe would execute (``plan`` from a shard
          worker, per-shard ``plans`` from the router front-end)
          without executing it
register  ``dataset``, ``members`` (``[oid, [lo...], [hi...], mask]``
          with an optional fifth element: the member's exact shape
          payload)
stats     —
health    —
shutdown  —
========  ==========================================================

Exact shapes travel as :func:`~repro.geometry.shapes.shape_to_payload`
rows — ``[kind, dim, [x0, y0, ...]]`` — so polygon and linestring
probes cross the wire as plain vertex arrays; routing stays by
ε-inflated MBR either way.  Coordinates travel as JSON numbers;
Python's ``json`` emits the shortest round-tripping ``repr`` of every
float, so corner and vertex values survive the wire bit-for-bit and
the scatter-gather parity against the in-process service is exact, not
approximate.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.geometry.shapes import Shape, shape_from_payload, shape_to_payload

__all__ = [
    "ProtocolError",
    "RemoteError",
    "encode_message",
    "decode_message",
    "encode_boxes",
    "decode_boxes",
    "decode_probe",
    "encode_shapes",
    "decode_shapes",
    "send_message",
    "recv_message",
    "SyncConnection",
]

#: A request/response line larger than this is refused (64 MiB) — a
#: backstop against unframed garbage, far above any real probe batch.
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed frame on the wire (bad JSON, missing fields, EOF)."""


class RemoteError(RuntimeError):
    """The peer answered ``ok: false``; carries its error text."""

    def __init__(self, message: str, error_type: str = "RuntimeError") -> None:
        super().__init__(message)
        self.error_type = error_type


def encode_message(message: dict) -> bytes:
    """One LF-terminated JSON line, compact separators."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one frame; raise :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def encode_boxes(boxes: "list[MBR]") -> list[list[float]]:
    """MBRs as flat ``[lo..., hi...]`` rows (the coordinate-table layout)."""
    return [list(box.lo) + list(box.hi) for box in boxes]


def decode_boxes(rows: list[list[float]]) -> "list[MBR]":
    """Rebuild MBRs from flat corner rows."""
    out = []
    for row in rows:
        dim = len(row) // 2
        if dim < 1 or len(row) != 2 * dim:
            raise ProtocolError(f"box row of length {len(row)} is not 2*D")
        out.append(MBR(row[:dim], row[dim:]))
    return out


def encode_shapes(shapes: "list[Shape | None]") -> list:
    """Exact shapes as wire payload rows (``None`` entries pass through)."""
    return [
        None if shape is None else shape_to_payload(shape) for shape in shapes
    ]


def decode_shapes(rows: list, ids: "list[int] | None" = None) -> "list[Shape | None]":
    """Rebuild exact shapes from payload rows.

    ``ids`` (parallel to ``rows``, optional) labels validation errors
    with the shape's object id.
    """
    out = []
    for position, row in enumerate(rows):
        if row is None:
            out.append(None)
            continue
        oid = ids[position] if ids is not None else position
        try:
            out.append(shape_from_payload(row, oid=oid))
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise ProtocolError(f"bad shape payload: {exc}") from None
    return out


def decode_probe(request: dict) -> "tuple[list, list[MBR]]":
    """A ``probe`` / ``explain`` frame's payload and its boxes.

    The payload is the boxes themselves, or — when exact ``shapes`` ride
    parallel to them — position-numbered objects carrying those shapes
    (``null`` entries refine as solid boxes).  Numbering by batch
    position keeps the pair ids of raw MBR batches, so one
    ``ids[position]`` mapping serves both.
    """
    boxes = decode_boxes(request["boxes"])
    ids = request.get("ids")
    shape_rows = request.get("shapes")
    for name, rows in (("ids", ids), ("shapes", shape_rows)):
        if rows is not None and len(rows) != len(boxes):
            raise ProtocolError(
                f"probe arity mismatch: {len(boxes)} boxes, {len(rows)} {name}"
            )
    if shape_rows is None:
        return boxes, boxes
    shapes = decode_shapes(shape_rows, ids=ids)
    return [
        SpatialObject(position, box, shape)
        for position, (box, shape) in enumerate(zip(boxes, shapes))
    ], boxes


async def send_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_message(message))
    await writer.drain()


async def recv_message(reader: asyncio.StreamReader) -> dict:
    """Read one frame; raise :class:`ProtocolError` on EOF mid-stream."""
    try:
        line = await reader.readline()
    except asyncio.LimitOverrunError:  # pragma: no cover - limit guards
        raise ProtocolError("frame exceeds the stream limit") from None
    if not line:
        raise ProtocolError("connection closed by peer")
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated frame (no trailing newline)")
    return decode_message(line)


class SyncConnection:
    """A blocking request/response client for the JSON-lines protocol.

    Used where no event loop is running — the cluster's shutdown path
    and ad-hoc scripting against a live ``repro-touch serve`` front-end.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def request(self, message: dict) -> dict:
        """Send one op and return the decoded response payload.

        Raises :class:`RemoteError` when the peer reports failure.
        """
        self._sock.sendall(encode_message(message))
        line = self._file.readline()
        if not line:
            raise ProtocolError("connection closed by peer")
        response = decode_message(line)
        if not response.get("ok"):
            raise RemoteError(
                response.get("error", "unknown remote failure"),
                response.get("error_type", "RuntimeError"),
            )
        return response

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SyncConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
