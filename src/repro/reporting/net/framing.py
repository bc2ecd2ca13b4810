"""Incremental codecs for the TCP ingestion and replication streams.

TCP is a byte stream: one ``read()`` may return half a DRPT frame, three
frames and a torn fourth, or a single byte.  The ingestion acceptor
therefore never calls :func:`repro.reporting.wire.decode_report` on raw
socket data -- it feeds everything through a :class:`FrameReader`,
which exploits the DRPT framing's self-delimiting layout::

    DRPT | >I body_len | body | >H key_len | key | >H sig_len | sig

to slice complete frames out of an internal buffer and keep partial
tails pending.  The reader is *tolerant* of arbitrary chunking (the
property tests feed it byte-at-a-time and split-at-every-offset) but
*intolerant* of desynchronization: a buffer that does not start with
the magic, or a declared length past ``max_frame``, raises
:class:`~repro.errors.WireError` -- the connection is garbage and the
acceptor closes it rather than scanning for a resync point.

Two smaller codecs share the module:

* **Status bytes.**  The service answers one byte per frame so the
  device-side :class:`~repro.reporting.client.ReportClient` semantics
  (retry on transport error, interpret the server's verdict) carry over
  a socket unchanged.  The mapping is explicit and frozen -- wire
  compatibility, not enum ordering.
* **Replication messages.**  Leader -> follower WAL shipping uses a
  trivial ``type | >I len | payload`` framing (:func:`encode_message` /
  :class:`MessageReader`): HELLO (shard count), SNAPSHOT (a full
  snapshot file image), RECORD (one crc32-framed WAL record tagged with
  its shard), and ACK (follower's cumulative applied count, sent after
  fsync).
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import TransportError, WireError
from repro.reporting.server import SubmitStatus
from repro.reporting.wire import WIRE_MAGIC

#: magic(4) + >I body_len
_PREFIX_LEN = 8

#: Upper bound on one frame; a 512-bit attestation key plus a report
#: body is well under 1 KiB, so anything near this is garbage lengths.
DEFAULT_MAX_FRAME = 1 << 20


class FrameReader:
    """Incremental DRPT frame slicer over an arbitrary byte stream.

    ``feed(data)`` buffers ``data`` and returns every *complete* frame
    (as raw bytes, ready for ``decode_report`` or ``server.submit``);
    a torn final frame stays pending until the rest arrives.
    """

    __slots__ = ("_buffer", "max_frame", "frames")

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self._buffer = bytearray()
        self.max_frame = max_frame
        self.frames = 0

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet sliced into a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Buffer ``data``; return the complete frames it completes."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        while True:
            total = self._frame_length()
            if total is None or len(self._buffer) < total:
                return frames
            frames.append(bytes(self._buffer[:total]))
            del self._buffer[:total]
            self.frames += 1

    def _frame_length(self) -> "int | None":
        """Total length of the buffered frame, or None while torn.

        Raises :class:`WireError` on a magic mismatch or an absurd
        declared length -- the stream is desynchronized, not torn.
        """
        buf = self._buffer
        if len(buf) < 4:
            if buf and not WIRE_MAGIC.startswith(bytes(buf)):
                raise WireError("desynchronized report stream (bad magic)")
            return None
        if bytes(buf[:4]) != WIRE_MAGIC:
            raise WireError("desynchronized report stream (bad magic)")
        if len(buf) < _PREFIX_LEN:
            return None
        (body_len,) = struct.unpack_from(">I", buf, 4)
        if _PREFIX_LEN + body_len > self.max_frame:
            raise WireError(
                f"report frame body of {body_len} bytes exceeds the "
                f"{self.max_frame}-byte frame cap"
            )
        offset = _PREFIX_LEN + body_len
        if len(buf) < offset + 2:
            return None
        (key_len,) = struct.unpack_from(">H", buf, offset)
        offset += 2 + key_len
        if len(buf) < offset + 2:
            return None
        (sig_len,) = struct.unpack_from(">H", buf, offset)
        total = offset + 2 + sig_len
        if total > self.max_frame:
            raise WireError(
                f"report frame of {total} bytes exceeds the "
                f"{self.max_frame}-byte frame cap"
            )
        return total


# ---------------------------------------------------------------------------
# Per-frame status bytes
# ---------------------------------------------------------------------------

#: Frozen wire values -- never renumber (clients in the field decode
#: these), and never derive them from enum iteration order.
_STATUS_TO_BYTE = {
    SubmitStatus.ACCEPTED: 0x01,
    SubmitStatus.DUPLICATE: 0x02,
    SubmitStatus.REPLAYED: 0x03,
    SubmitStatus.BAD_SIGNATURE: 0x04,
    SubmitStatus.MALFORMED: 0x05,
    SubmitStatus.UNKNOWN_APP: 0x06,
    SubmitStatus.DROPPED: 0x07,
    SubmitStatus.NOT_LEADER: 0x08,
}
_BYTE_TO_STATUS = {value: status for status, value in _STATUS_TO_BYTE.items()}


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes from a blocking socket; a peer that
    closes first raises :class:`~repro.errors.TransportError`."""
    chunks = bytearray()
    while len(chunks) < count:
        data = sock.recv(count - len(chunks))
        if not data:
            raise TransportError("peer closed mid-response")
        chunks.extend(data)
    return bytes(chunks)


def encode_status(status: SubmitStatus) -> bytes:
    """One status byte per ingested frame (server -> client)."""
    try:
        return bytes((_STATUS_TO_BYTE[status],))
    except KeyError:
        raise WireError(f"unmapped submit status {status!r}") from None


def decode_status(value: int) -> SubmitStatus:
    """Inverse of :func:`encode_status`; raises :class:`WireError`."""
    try:
        return _BYTE_TO_STATUS[value]
    except KeyError:
        raise WireError(f"unknown status byte 0x{value:02x}") from None


# ---------------------------------------------------------------------------
# Replication messages (leader <-> follower)
# ---------------------------------------------------------------------------

#: Leader -> follower: ``>B shard_count``.  Always the first message.
MSG_HELLO = b"H"
#: Leader -> follower: a full snapshot file image (magic+payload+crc).
#: Sent once at connect (bootstrap) and after every leader compaction.
MSG_SNAPSHOT = b"S"
#: Leader -> follower: ``>B wal_index | crc32-framed record bytes``.
#: ``wal_index`` 0xFF addresses the meta WAL, else the shard WAL.
MSG_RECORD = b"R"
#: Follower -> leader: ``>Q cumulative_applied`` after a local fsync.
MSG_ACK = b"A"
#: Leader -> follower: an encoded :class:`HealthStatus` (liveness beat
#: carrying the leader's epoch).  Does not advance ``applied``.
MSG_HEARTBEAT = b"T"

#: ``wal_index`` byte addressing the meta WAL in a RECORD message.
META_WAL = 0xFF

_MSG_KINDS = (MSG_HELLO, MSG_SNAPSHOT, MSG_RECORD, MSG_ACK, MSG_HEARTBEAT)

#: Snapshot images dominate; records are small.  Same garbage-length
#: guard rationale as the frame cap, just sized for snapshots.
DEFAULT_MAX_MESSAGE = 1 << 28


def encode_message(kind: bytes, payload: bytes) -> bytes:
    """``type | >I len | payload`` replication framing."""
    if kind not in _MSG_KINDS:
        raise WireError(f"unknown replication message kind {kind!r}")
    return kind + struct.pack(">I", len(payload)) + payload


class MessageReader:
    """Incremental replication-message slicer (same contract as
    :class:`FrameReader`, for the leader<->follower stream)."""

    __slots__ = ("_buffer", "max_message")

    def __init__(self, max_message: int = DEFAULT_MAX_MESSAGE) -> None:
        self._buffer = bytearray()
        self.max_message = max_message

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Tuple[bytes, bytes]]:
        """Buffer ``data``; return complete ``(kind, payload)`` pairs."""
        self._buffer.extend(data)
        messages: List[Tuple[bytes, bytes]] = []
        while len(self._buffer) >= 5:
            kind = bytes(self._buffer[:1])
            if kind not in _MSG_KINDS:
                raise WireError(
                    f"desynchronized replication stream (kind {kind!r})"
                )
            (length,) = struct.unpack_from(">I", self._buffer, 1)
            if length > self.max_message:
                raise WireError(
                    f"replication message of {length} bytes exceeds the "
                    f"{self.max_message}-byte cap"
                )
            if len(self._buffer) < 5 + length:
                break
            messages.append((kind, bytes(self._buffer[5 : 5 + length])))
            del self._buffer[: 5 + length]
        return messages


# ---------------------------------------------------------------------------
# Cluster-control wire: health probes, fencing, NOT_LEADER redirects
# ---------------------------------------------------------------------------
#
# The ingest port is dual-protocol: the first four bytes of a connection
# select DRPT frame ingestion (``WIRE_MAGIC``), a health probe
# (``HEALTH_MAGIC``), or a fence request (``FENCE_MAGIC``).  Keeping the
# control plane on the data port means the supervisor observes exactly
# the path clients use -- a leader that answers probes but not writes is
# not a failure mode this design can misreport.

#: Connection preamble selecting the health-probe protocol.  The probe
#: is the 4 magic bytes; the response is ``>H len | health payload``.
#: The connection stays open for repeated probes (one per magic).
HEALTH_MAGIC = b"HLTH"

#: Connection preamble selecting the fence protocol.  The request is
#: ``FNCE | >Q epoch | >H len | new_endpoint utf-8``; the response is a
#: single byte: 0x01 fence applied, 0x00 ignored (stale epoch).
FENCE_MAGIC = b"FNCE"

#: Role bytes in a health payload -- frozen wire values, like statuses.
_ROLE_TO_BYTE = {"leader": 1, "fenced": 2, "follower": 3}
_BYTE_TO_ROLE = {value: role for role, value in _ROLE_TO_BYTE.items()}


@dataclass(frozen=True)
class HealthStatus:
    """One node's self-reported health, as carried by probes/heartbeats.

    ``epoch`` is the leadership generation the node believes current;
    ``applied`` counts durable appends (followers: replicated records),
    ``wal_depth`` appends since the last snapshot, ``queue_depth`` and
    ``dropped`` expose ingest backpressure.  ``endpoint`` is where
    clients should write -- for a fenced node that is the *new* leader.
    """

    epoch: int
    role: str
    applied: int = 0
    wal_depth: int = 0
    queue_depth: int = 0
    dropped: int = 0
    endpoint: str = ""


def encode_health(health: HealthStatus) -> bytes:
    """``>Q epoch | B role | >Q applied | >I wal | >I queue | >Q dropped
    | >H len | endpoint`` (heartbeat and probe-response payload)."""
    try:
        role = _ROLE_TO_BYTE[health.role]
    except KeyError:
        raise WireError(f"unmapped health role {health.role!r}") from None
    endpoint = health.endpoint.encode("utf-8")
    return b"".join(
        (
            struct.pack(
                ">QBQIIQ",
                health.epoch & 0xFFFFFFFFFFFFFFFF,
                role,
                health.applied & 0xFFFFFFFFFFFFFFFF,
                health.wal_depth & 0xFFFFFFFF,
                health.queue_depth & 0xFFFFFFFF,
                health.dropped & 0xFFFFFFFFFFFFFFFF,
            ),
            struct.pack(">H", len(endpoint)),
            endpoint,
        )
    )


_HEALTH_FIXED = struct.calcsize(">QBQIIQ")


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise WireError(f"{what} is not UTF-8") from None


def decode_health(payload: bytes) -> HealthStatus:
    """Inverse of :func:`encode_health`; raises :class:`WireError`."""
    try:
        epoch, role_byte, applied, wal_depth, queue_depth, dropped = (
            struct.unpack_from(">QBQIIQ", payload, 0)
        )
        (endpoint_len,) = struct.unpack_from(">H", payload, _HEALTH_FIXED)
    except struct.error:
        raise WireError("truncated health payload") from None
    offset = _HEALTH_FIXED + 2
    endpoint = payload[offset : offset + endpoint_len]
    if len(endpoint) != endpoint_len or offset + endpoint_len != len(payload):
        raise WireError("malformed health payload")
    role = _BYTE_TO_ROLE.get(role_byte)
    if role is None:
        raise WireError(f"unknown health role byte 0x{role_byte:02x}")
    return HealthStatus(
        epoch=epoch,
        role=role,
        applied=applied,
        wal_depth=wal_depth,
        queue_depth=queue_depth,
        dropped=dropped,
        endpoint=_utf8(endpoint, "health endpoint"),
    )


def encode_redirect(epoch: int, endpoint: str) -> bytes:
    """Payload a fenced node writes after a NOT_LEADER status byte:
    ``>Q epoch | >H len | endpoint utf-8`` (the new leader)."""
    raw = endpoint.encode("utf-8")
    return struct.pack(">QH", epoch & 0xFFFFFFFFFFFFFFFF, len(raw)) + raw


def decode_redirect(payload: bytes) -> Tuple[int, str]:
    """Inverse of :func:`encode_redirect`; raises :class:`WireError`."""
    try:
        epoch, endpoint_len = struct.unpack_from(">QH", payload, 0)
    except struct.error:
        raise WireError("truncated NOT_LEADER redirect") from None
    raw = payload[10 : 10 + endpoint_len]
    if len(raw) != endpoint_len or 10 + endpoint_len != len(payload):
        raise WireError("malformed NOT_LEADER redirect")
    return epoch, _utf8(raw, "NOT_LEADER redirect endpoint")


#: A fence request body reuses the redirect layout (epoch + endpoint).
encode_fence = encode_redirect
decode_fence = decode_redirect


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (redirect / config strings)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise WireError(f"malformed endpoint {text!r} (want host:port)")
    try:
        return host, int(port)
    except ValueError:
        raise WireError(f"malformed endpoint port in {text!r}") from None


def format_endpoint(endpoint: Tuple[str, int]) -> str:
    """Inverse of :func:`parse_endpoint`."""
    return f"{endpoint[0]}:{endpoint[1]}"
