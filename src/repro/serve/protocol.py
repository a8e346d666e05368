"""The EDDIE serving wire protocol: length-prefixed binary frames.

One TCP connection carries one monitoring session. Every frame is an
8-byte header (magic ``b"ED"``, frame type, flags, payload length)
followed by the payload. Control frames (HELLO / OPEN / REPORT / CLOSE /
ERROR / STATS) carry canonical JSON; CHUNK frames carry raw IQ samples
behind a small binary header (sequence number + dtype code), so the DSP
hot path never round-trips sample data through JSON.

Session lifecycle on the wire::

    client                          server
    ------                          ------
    HELLO {versions}        ->
                            <-      HELLO {version}        (negotiated)
    OPEN  {model, t0}       ->
                            <-      OPEN  {session, model}  | ERROR
    CHUNK [seq|dtype|IQ]    ->
                            <-      REPORT {seq, reports}   (one per CHUNK)
    ...                             ...
    CLOSE {}                ->
                            <-      CLOSE {summary}

STATS is valid any time after HELLO and is answered immediately with a
STATS frame. ERROR frames carry a machine-readable ``code`` (the
constants below); ``at_capacity`` is the load-shedding rejection.

Sessions are resumable (DESIGN.md D19). The server periodically
checkpoints each session's stream state to durable storage and
acknowledges the checkpoint with ``CHECKPOINT_ACK {seq}`` -- "every
chunk up to ``seq`` is durably scored; you may forget it". A client that
loses its connection reconnects, re-HELLOs, and sends ``RESUME
{session, token, delivered, window}`` instead of OPEN; the server
restores the spilled state and replies with a RESUME frame carrying the
durable sequence number plus any REPORT payloads the client had not yet
seen (at most ``window`` of them -- the client's in-flight bound). The
client then replays only chunks after the durable sequence number:
exactly-once window scoring, exactly-once report delivery. CHUNK
sequence numbers are therefore a contract: they start at 1 and have no
gaps, and a session that breaks it is refused with ``ERROR bad_frame``.

Sessions are placeable (DESIGN.md D21). A shard router answers OPEN or
RESUME with ``REDIRECT {worker, host, port}`` instead of the session
ack: "your session lives on that worker -- dial it directly and repeat
the request". Clients include an optional ``shard_key`` in OPEN/RESUME
so the router's consistent-hash placement is stable across reconnects
(servers ignore unknown JSON fields, so the key is free against a
single worker).

There is one protocol revision, :data:`PROTOCOL_VERSION` (DESIGN.md
D26). HELLO still carries a ``versions`` list so a future revision can
be negotiated; a peer that does not offer this one is refused with
``ERROR unsupported_version``.

Exactness: JSON floats are emitted with Python ``repr`` semantics and
parse back to the identical double, and CHUNK payloads are raw
little-endian sample bytes, so a replayed capture produces bit-identical
monitor output to a local run (asserted in ``tests/test_serve.py``).
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "CHUNK_HEADER",
    "ERR_AT_CAPACITY",
    "ERR_BAD_FRAME",
    "ERR_BAD_REDIRECT",
    "ERR_BAD_STATE",
    "ERR_DRAINING",
    "ERR_EVICTED",
    "ERR_INTERNAL",
    "ERR_MODEL_CORRUPT",
    "ERR_NO_WORKERS",
    "ERR_RESUME_REJECTED",
    "ERR_UNKNOWN_MODEL",
    "ERR_UNKNOWN_SESSION",
    "ERR_UNSUPPORTED_VERSION",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "MAX_PAYLOAD",
    "PROTOCOL_VERSION",
    "decode_chunk",
    "encode_chunk",
    "encode_frame",
    "error_frame",
    "json_frame",
    "negotiate_version",
    "parse_json",
    "parse_redirect",
    "read_frame",
    "recv_frame",
    "report_from_json",
    "report_to_json",
    "send_frame",
    "summary_from_json",
    "summary_to_json",
]

MAGIC = b"ED"
HEADER = struct.Struct(">2sBBI")  # magic, type, flags, payload length
CHUNK_HEADER = struct.Struct(">IB3x")  # seq, dtype code, padding

#: The one protocol revision this build speaks (DESIGN.md D26): resumable
#: sessions (RESUME / CHECKPOINT_ACK) and shard placement (REDIRECT + the
#: optional ``shard_key`` field).
PROTOCOL_VERSION = 3

#: Refuse payloads beyond this size (a corrupt length prefix must not
#: make the peer allocate gigabytes). 16 MiB >> any sane IQ chunk.
MAX_PAYLOAD = 16 * 1024 * 1024

# Typed ERROR codes (the ``code`` field of ERROR frame payloads).
ERR_UNSUPPORTED_VERSION = "unsupported_version"
ERR_UNKNOWN_MODEL = "unknown_model"
ERR_MODEL_CORRUPT = "model_corrupt"
ERR_AT_CAPACITY = "at_capacity"
ERR_EVICTED = "evicted"
ERR_BAD_FRAME = "bad_frame"
ERR_BAD_STATE = "bad_state"
ERR_INTERNAL = "internal"
ERR_DRAINING = "draining"
ERR_UNKNOWN_SESSION = "unknown_session"
ERR_RESUME_REJECTED = "resume_rejected"
ERR_BAD_REDIRECT = "bad_redirect"
ERR_NO_WORKERS = "no_workers"


class FrameType(IntEnum):
    HELLO = 1
    OPEN = 2
    CHUNK = 3
    REPORT = 4
    CLOSE = 5
    ERROR = 6
    STATS = 7
    RESUME = 8
    CHECKPOINT_ACK = 9
    REDIRECT = 10


# Wire dtype codes for CHUNK payloads. complex64 is the nominal live-SDR
# format; complex128 carries simulation captures without rounding (the
# bit-identity contract); the float types serve power-trace monitoring.
_DTYPE_CODES: Dict[int, np.dtype] = {
    1: np.dtype("<c8"),
    2: np.dtype("<c16"),
    3: np.dtype("<f4"),
    4: np.dtype("<f8"),
}
_CODE_OF_DTYPE = {dt: code for code, dt in _DTYPE_CODES.items()}


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    type: FrameType
    payload: bytes

    def __len__(self) -> int:
        return len(self.payload)


def encode_frame(ftype: FrameType, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + payload) to bytes."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    return HEADER.pack(MAGIC, int(ftype), 0, len(payload)) + payload


def json_frame(ftype: FrameType, obj: Any) -> bytes:
    """Serialize a control frame with a canonical-JSON payload."""
    payload = json.dumps(
        obj, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return encode_frame(ftype, payload)


def error_frame(code: str, message: str) -> bytes:
    """Serialize a typed ERROR frame."""
    return json_frame(FrameType.ERROR, {"code": code, "message": message})


def parse_json(frame: Frame) -> Dict[str, Any]:
    """The JSON payload of a control frame, as a dict."""
    try:
        obj = json.loads(frame.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(
            f"{frame.type.name} frame carries invalid JSON: {error}"
        ) from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"{frame.type.name} frame payload must be a JSON object, "
            f"got {type(obj).__name__}"
        )
    return obj


def encode_chunk(seq: int, samples: np.ndarray) -> bytes:
    """Serialize one CHUNK frame: sequence number + dtype-tagged IQ.

    The sample dtype is preserved on the wire (little-endian), so
    complex128 simulation captures replay without rounding while live
    complex64 front ends pay half the bandwidth.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ProtocolError(
            f"chunk samples must be 1-D, got shape {samples.shape}"
        )
    wire_dtype = samples.dtype.newbyteorder("<")
    code = _CODE_OF_DTYPE.get(wire_dtype)
    if code is None:
        raise ProtocolError(
            f"unsupported chunk dtype {samples.dtype}; use one of "
            f"{sorted(str(d) for d in _CODE_OF_DTYPE)}"
        )
    body = CHUNK_HEADER.pack(seq, code) + np.ascontiguousarray(
        samples.astype(wire_dtype, copy=False)
    ).tobytes()
    return encode_frame(FrameType.CHUNK, body)


def decode_chunk(frame: Frame) -> Tuple[int, np.ndarray]:
    """Parse a CHUNK frame into ``(seq, samples)``."""
    if frame.type != FrameType.CHUNK:
        raise ProtocolError(f"expected CHUNK, got {frame.type.name}")
    if len(frame.payload) < CHUNK_HEADER.size:
        raise ProtocolError("CHUNK frame shorter than its header")
    seq, code = CHUNK_HEADER.unpack_from(frame.payload)
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise ProtocolError(f"unknown chunk dtype code {code}")
    body = frame.payload[CHUNK_HEADER.size:]
    if len(body) % dtype.itemsize:
        raise ProtocolError(
            f"CHUNK body of {len(body)} bytes is not a whole number of "
            f"{dtype} samples"
        )
    # frombuffer yields a read-only view of the frame; copy so the
    # monitor owns a mutable, native-order array.
    samples = np.frombuffer(body, dtype=dtype).astype(
        dtype.newbyteorder("="), copy=True
    )
    return int(seq), samples


def negotiate_version(client_versions: Any) -> Optional[int]:
    """:data:`PROTOCOL_VERSION` if the peer offers it, else None."""
    try:
        offered = {int(v) for v in client_versions}
    except (TypeError, ValueError):
        raise ProtocolError(
            f"HELLO versions must be a list of integers, "
            f"got {client_versions!r}"
        ) from None
    return PROTOCOL_VERSION if PROTOCOL_VERSION in offered else None


def parse_redirect(frame: Frame) -> Tuple[str, int, int]:
    """Validate a REDIRECT frame into ``(host, port, worker_id)``.

    Every malformation -- wrong frame type, non-object payload, missing
    or non-string host, out-of-range port, bad worker id -- raises a
    typed :class:`ProtocolError` with ``code='bad_redirect'``, so a
    client can distinguish a corrupt router from a lost connection.
    """
    if frame.type != FrameType.REDIRECT:
        raise ProtocolError(
            f"expected REDIRECT, got {frame.type.name}",
            code=ERR_BAD_REDIRECT,
        )
    try:
        payload = parse_json(frame)
    except ProtocolError as error:
        raise ProtocolError(str(error), code=ERR_BAD_REDIRECT) from None
    host = payload.get("host")
    if not isinstance(host, str) or not host:
        raise ProtocolError(
            f"REDIRECT 'host' must be a non-empty string, got {host!r}",
            code=ERR_BAD_REDIRECT,
        )
    try:
        port = int(payload["port"])
    except (KeyError, TypeError, ValueError):
        raise ProtocolError(
            f"REDIRECT 'port' must be an integer, got "
            f"{payload.get('port')!r}",
            code=ERR_BAD_REDIRECT,
        ) from None
    if not 0 < port < 65536:
        raise ProtocolError(
            f"REDIRECT port {port} is out of range", code=ERR_BAD_REDIRECT
        )
    try:
        worker = int(payload.get("worker", -1))
    except (TypeError, ValueError):
        raise ProtocolError(
            f"REDIRECT 'worker' must be an integer, got "
            f"{payload.get('worker')!r}",
            code=ERR_BAD_REDIRECT,
        ) from None
    return host, port, worker


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte slices, get whole frames.

    Both transports use it -- the asyncio server reads whatever the
    socket delivers, the sync client reads exact lengths -- so framing
    bugs surface in one place.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        """Append received bytes; return every frame now complete."""
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Optional[Frame]:
        if len(self._buffer) < HEADER.size:
            return None
        magic, ftype, _flags, length = HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            raise ProtocolError(
                f"bad frame magic {bytes(magic)!r} (not an EDDIE stream, "
                f"or the stream lost sync)"
            )
        if length > MAX_PAYLOAD:
            raise ProtocolError(
                f"frame announces a {length}-byte payload, over the "
                f"{MAX_PAYLOAD}-byte limit"
            )
        if len(self._buffer) < HEADER.size + length:
            return None
        try:
            frame_type = FrameType(ftype)
        except ValueError:
            raise ProtocolError(f"unknown frame type {ftype}") from None
        payload = bytes(self._buffer[HEADER.size:HEADER.size + length])
        del self._buffer[:HEADER.size + length]
        return Frame(frame_type, payload)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# -- transport helpers --------------------------------------------------------


async def read_frame(reader) -> Optional[Frame]:
    """Read one frame from an asyncio StreamReader.

    Returns None on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on EOF mid-frame or malformed framing.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(error.partial)} of "
            f"{HEADER.size} bytes)"
        ) from None
    decoder = FrameDecoder()
    frames = decoder.feed(header)
    if frames:  # zero-payload frame completed by the header alone
        return frames[0]
    magic, ftype, _flags, length = HEADER.unpack(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid-payload ({len(error.partial)} of "
            f"{length} bytes)"
        ) from None
    frames = decoder.feed(payload)
    if not frames:
        raise ProtocolError("internal framing error")  # unreachable
    return frames[0]


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        part = sock.recv(n - len(chunks))
        if not part:
            # Mid-frame EOF is a lost connection, not a malformed frame:
            # typed so a reconnecting client can tell them apart.
            raise ProtocolError(
                f"connection closed after {len(chunks)} of {n} bytes",
                code="connection_closed",
            )
        chunks.extend(part)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> Optional[Frame]:
    """Read one frame from a blocking socket (sync client side).

    Returns None on a clean EOF at a frame boundary.
    """
    try:
        first = sock.recv(1)
    except ConnectionResetError:
        return None
    if not first:
        return None
    header = first + _recv_exactly(sock, HEADER.size - 1)
    decoder = FrameDecoder()
    frames = decoder.feed(header)
    if frames:
        return frames[0]
    _magic, _ftype, _flags, length = HEADER.unpack(header)
    frames = decoder.feed(_recv_exactly(sock, length))
    return frames[0] if frames else None


def send_frame(sock: socket.socket, data: bytes) -> None:
    """Write one already-encoded frame to a blocking socket."""
    sock.sendall(data)


# -- report / summary codecs --------------------------------------------------
# Shared by server and client so both sides agree field-for-field.
# Python's json emits floats with repr semantics and parses them back to
# the identical double, which is what keeps wire reports bit-identical
# to local monitor output.


def report_to_json(report) -> Dict[str, Any]:
    """An :class:`~repro.core.monitor.AnomalyReport` as a JSON object."""
    return {
        "time": report.time,
        "region": report.region,
        "streak": report.streak,
        "kind": report.kind,
    }


def report_from_json(obj: Dict[str, Any]):
    """Rebuild an :class:`AnomalyReport` from its JSON object."""
    from repro.core.monitor import AnomalyReport

    try:
        return AnomalyReport(
            time=float(obj["time"]),
            region=str(obj["region"]),
            streak=int(obj["streak"]),
            kind=str(obj.get("kind", "anomaly")),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed report object: {error}") from None


def summary_to_json(summary) -> Dict[str, Any]:
    """A :class:`~repro.stream.StreamSummary` as a JSON object."""
    return {
        "session_id": summary.session_id,
        "chunks": summary.chunks,
        "samples": summary.samples,
        "windows": summary.windows,
        "reports": [report_to_json(r) for r in summary.reports],
        "unscorable_fraction": summary.unscorable_fraction,
        "status": summary.status,
        "stopped_early": summary.stopped_early,
    }


def summary_from_json(obj: Dict[str, Any]):
    """Rebuild a :class:`StreamSummary` from its JSON object."""
    from repro.stream.engine import StreamSummary

    try:
        return StreamSummary(
            session_id=str(obj["session_id"]),
            chunks=int(obj["chunks"]),
            samples=int(obj["samples"]),
            windows=int(obj["windows"]),
            reports=[report_from_json(r) for r in obj.get("reports", [])],
            unscorable_fraction=float(obj["unscorable_fraction"]),
            status=str(obj["status"]),
            stopped_early=bool(obj["stopped_early"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed summary object: {error}") from None
