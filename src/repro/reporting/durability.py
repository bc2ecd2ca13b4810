"""Durable ingestion state: per-shard WAL + snapshot recovery.

The decentralized takedown story only works if the backend that
accumulates "thousands of user devices" worth of evidence survives to
act on it.  :class:`~repro.reporting.server.ReportServer` keeps all of
its bounded state in memory; this module makes that state survive a
process crash:

* **Write-ahead log.**  Every accepted report and every takedown
  transition is journaled *before* it mutates server state.  Reports go
  to one WAL file per shard (same ``crc32(device_id)`` routing as the
  in-memory shards), registrations and takedowns to a meta WAL, so
  replay order within a shard matches acceptance order and cross-shard
  order never mattered in the first place.
* **Record framing.**  ``>I length | >I crc32(payload) | payload`` --
  length-prefixed and checksummed, so replay detects both a torn tail
  (the record being written when the process died) and bit rot.  A bad
  record stops that file's replay, is counted in
  ``recovery.torn_records``, and the file is truncated back to the last
  good byte so the log stays appendable.
* **Snapshot compaction.**  Every ``snapshot_every`` appends the whole
  durable state (dedup windows, queues, sliding windows, takedown
  markers) is serialized, crc-guarded, written to a temp file,
  *verified by re-reading*, atomically renamed over the previous
  snapshot, and only then are the WALs truncated
  (:func:`install_snapshot`, which a replication follower uses for
  shipped images too).  A snapshot that fails verification
  (``snapshot.write`` fault, disk error) aborts the compaction and
  keeps the WAL -- durability never regresses.
* **Recovery.**  ``ReportServer.recover(data_dir)`` loads the snapshot
  (ignoring a corrupt one: the WAL behind it is the fallback), replays
  the meta WAL then each shard WAL, and reopens the logs for append.
  Replay is idempotent -- a crash between snapshot rename and WAL
  truncation merely replays records whose ``(device, nonce)`` the
  snapshot already remembers.

This module is the only one that knows the data-directory layout
(:func:`wal_path`, :func:`snapshot_path`, :func:`snapshot_image`).

What is deliberately *not* persisted: metrics (observability restarts
from zero), backpressure-dropped and rejected reports (never acked, the
client retries), and fleet-driver simulation state.

Fault points: ``wal.append`` (corrupts or fails a record write),
``wal.fsync`` (fails the sync barrier), ``snapshot.write`` (corrupts or
fails the snapshot payload).  All three degrade gracefully: a failed
append rejects the report as ``DROPPED`` (retryable, never acked-then-
lost), a failed snapshot keeps the WAL.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.chaos.faults import fault_point
from repro.codec import Reader
from repro.errors import DurabilityError, ReproError, WireError
from repro.metrics import MetricsRegistry
from repro.reporting.wire import (
    DetectionReport,
    canonical_bytes,
    decode_report_body,
    pack_str,
    read_str,
)

#: WAL record types.
RECORD_REPORT = 1
RECORD_TAKEDOWN = 2
RECORD_REGISTER = 3
RECORD_EPOCH = 4

#: Snapshot file framing: ``RSNP | payload | >I crc32(payload)``.  Payload
#: version 2 adds the leadership epoch after a retired 8-byte field
#: (written as 0, ignored on read); version-1 payloads (pre-supervision)
#: still decode with ``epoch == 0``.
SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 2
SNAPSHOT_NAME = "snapshot.bin"

#: ``>I length | >I crc32`` record header.
_HEADER = struct.Struct(">II")
_F64 = struct.Struct(">d")
#: ``>d clock | >Q retired``, the head of every snapshot payload.
_CLOCK = struct.Struct(">dQ")


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


def encode_report_record(app_name: str, report: DetectionReport) -> bytes:
    """Journal payload for one accepted report.

    The byte after the type is a retired flag: written as 0, and
    ignored on replay so records that carry 1 still decode.
    """
    return b"".join(
        (
            struct.pack(">BB", RECORD_REPORT, 0),
            pack_str(app_name),
            canonical_bytes(report),
        )
    )


def encode_takedown_record(app_name: str, key_hex: str, ts: float) -> bytes:
    """Journal payload for one takedown transition."""
    return b"".join(
        (
            struct.pack(">B", RECORD_TAKEDOWN),
            pack_str(app_name),
            pack_str(key_hex),
            struct.pack(">d", ts),
        )
    )


def encode_register_record(app_name: str, original_key_hex: str) -> bytes:
    """Journal payload for one app registration."""
    return b"".join(
        (
            struct.pack(">B", RECORD_REGISTER),
            pack_str(app_name),
            pack_str(original_key_hex),
        )
    )


def encode_epoch_record(epoch: int) -> bytes:
    """Journal payload for one leadership-epoch bump (meta WAL)."""
    return struct.pack(">BQ", RECORD_EPOCH, epoch & 0xFFFFFFFFFFFFFFFF)


def decode_record(payload: bytes) -> Tuple:
    """Inverse of the ``encode_*_record`` family.

    Returns one of ``("report", app, report)``,
    ``("takedown", app, key, ts)``, ``("register", app, key)``,
    ``("epoch", epoch)``.
    """
    r = Reader(payload, WireError)
    kind = r.u8("WAL record")
    if kind == RECORD_REPORT:
        r.u8("WAL report record")  # the retired flag
        app_name = read_str(r)
        return ("report", app_name, decode_report_body(r.rest()))
    if kind == RECORD_TAKEDOWN:
        app_name = read_str(r)
        key_hex = read_str(r)
        (ts,) = r.unpack(_F64, "WAL takedown record")
        record = ("takedown", app_name, key_hex, ts)
    elif kind == RECORD_REGISTER:
        record = ("register", read_str(r), read_str(r))
    elif kind == RECORD_EPOCH:
        record = ("epoch", r.u64("WAL epoch record"))
    else:
        raise WireError(f"unknown WAL record type {kind}")
    r.end("WAL record")
    return record


# ---------------------------------------------------------------------------
# Snapshot codec
# ---------------------------------------------------------------------------
#
# The snapshot payload is a plain nested structure the server produces
# (``ReportServer._snapshot_state``) and consumes
# (``ReportServer._restore_state``)::
#
#     {"clock": float, "epoch": int, "apps": [
#         {"name": str, "key": str,
#          "takedown_key": Optional[str], "takedown_ts": Optional[float],
#          "shards": [
#              {"nonces": [(device, nonce), ...],
#               "queue": [canonical report bytes, ...],
#               "windows": [(key, [(ts, device), ...]), ...]}]}]}


def encode_snapshot(state: dict) -> bytes:
    """Deterministic binary serialization of the durable server state."""
    parts: List[bytes] = [
        struct.pack(">B", SNAPSHOT_VERSION),
        struct.pack(">d", state["clock"]),
        struct.pack(">Q", 0),  # retired field
        struct.pack(">Q", state.get("epoch", 0)),
        struct.pack(">H", len(state["apps"])),
    ]
    for app in state["apps"]:
        parts.append(pack_str(app["name"]))
        parts.append(pack_str(app["key"]))
        if app["takedown_key"] is None:
            parts.append(struct.pack(">B", 0))
        else:
            parts.append(struct.pack(">B", 1))
            parts.append(pack_str(app["takedown_key"]))
            parts.append(struct.pack(">d", app["takedown_ts"] or 0.0))
        parts.append(struct.pack(">H", len(app["shards"])))
        for shard in app["shards"]:
            parts.append(struct.pack(">I", len(shard["nonces"])))
            for device, nonce in shard["nonces"]:
                parts.append(pack_str(device))
                parts.append(struct.pack(">Q", nonce & 0xFFFFFFFFFFFFFFFF))
            parts.append(struct.pack(">I", len(shard["queue"])))
            for body in shard["queue"]:
                parts.append(struct.pack(">I", len(body)))
                parts.append(body)
            parts.append(struct.pack(">H", len(shard["windows"])))
            for key, entries in shard["windows"]:
                parts.append(pack_str(key))
                parts.append(struct.pack(">I", len(entries)))
                for ts, device in entries:
                    parts.append(struct.pack(">d", ts))
                    parts.append(pack_str(device))
    return b"".join(parts)


def decode_snapshot(payload: bytes) -> dict:
    """Inverse of :func:`encode_snapshot`; raises :class:`WireError`."""
    r = Reader(payload, WireError)
    version = r.u8("snapshot version")
    if version not in (1, SNAPSHOT_VERSION):
        raise WireError("unsupported snapshot version")
    clock, _ = r.unpack(_CLOCK, "snapshot header")
    epoch = r.u64("snapshot epoch") if version >= 2 else 0
    apps = []
    for _ in range(r.u16("snapshot")):
        name = read_str(r)
        key = read_str(r)
        takedown_key: Optional[str] = None
        takedown_ts: Optional[float] = None
        if r.u8("snapshot takedown flag"):
            takedown_key = read_str(r)
            (takedown_ts,) = r.unpack(_F64, "snapshot takedown time")
        shards = []
        for _ in range(r.u16("snapshot")):
            nonces = [
                (read_str(r), r.u64("snapshot nonce"))
                for _ in range(r.u32("snapshot"))
            ]
            queue = [
                r.take(r.u32("snapshot"), "snapshot queue entry")
                for _ in range(r.u32("snapshot"))
            ]
            windows = []
            for _ in range(r.u16("snapshot")):
                wkey = read_str(r)
                entries = []
                for _ in range(r.u32("snapshot")):
                    (ts,) = r.unpack(_F64, "snapshot window entry")
                    entries.append((ts, read_str(r)))
                windows.append((wkey, entries))
            shards.append({"nonces": nonces, "queue": queue, "windows": windows})
        apps.append(
            {
                "name": name,
                "key": key,
                "takedown_key": takedown_key,
                "takedown_ts": takedown_ts,
                "shards": shards,
            }
        )
    r.end("snapshot payload")
    return {"clock": clock, "epoch": epoch, "apps": apps}


# ---------------------------------------------------------------------------
# The data directory
# ---------------------------------------------------------------------------


def wal_path(data_dir: str, index: int) -> str:
    """Shard ``index``'s WAL in ``data_dir``; a negative index is the meta WAL."""
    if index < 0:
        return os.path.join(data_dir, "wal-meta.log")
    return os.path.join(data_dir, f"wal-{index:03d}.log")


def snapshot_path(data_dir: str) -> str:
    return os.path.join(data_dir, SNAPSHOT_NAME)


def snapshot_image(payload: bytes, crc: Optional[int] = None) -> bytes:
    """A snapshot file image: magic, ``payload``, then its crc32.

    ``crc`` overrides the trailer, so a payload corrupted on its way to
    disk keeps the crc of the clean one and fails the check.
    """
    if crc is None:
        crc = zlib.crc32(payload)
    return SNAPSHOT_MAGIC + payload + struct.pack(">I", crc)


def _read_snapshot_payload(
    path: str, metrics: Optional[MetricsRegistry] = None
) -> Optional[bytes]:
    """The checked payload of the snapshot file at ``path``, or None.

    A missing file is None; a bad magic or crc is None and counted in
    ``metrics`` as ``recovery.corrupt_snapshots``.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    payload = blob[4:-4]
    if (
        len(blob) < 9
        or blob[:4] != SNAPSHOT_MAGIC
        or zlib.crc32(payload) != struct.unpack(">I", blob[-4:])[0]
    ):
        if metrics is not None:
            metrics.counter("recovery.corrupt_snapshots").inc()
        return None
    return payload


def install_snapshot(
    data_dir: str, image: bytes, wals: Iterable,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Make ``image`` the snapshot of ``data_dir``, then truncate ``wals``.

    The image goes to a temp file, is fsynced, re-read and checked, and
    only then renamed over the snapshot; the WALs (open files) are
    truncated last, since the snapshot now subsumes them.  An image that
    fails the check raises :class:`DurabilityError`; it, like an
    ``OSError``, leaves the directory as it was.
    """
    final = snapshot_path(data_dir)
    tmp_path = final + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(image)
            handle.flush()
            os.fsync(handle.fileno())
        if _read_snapshot_payload(tmp_path, metrics) is None:
            raise DurabilityError("snapshot failed verification")
    except (OSError, DurabilityError):
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    os.replace(tmp_path, final)
    for wal in wals:
        os.ftruncate(wal.fileno(), 0)


def clear_data_dir(data_dir: str) -> None:
    """Delete the snapshot, any temp image and every WAL in ``data_dir``."""
    for name in sorted(os.listdir(data_dir)):
        if name == SNAPSHOT_NAME or name.endswith(".tmp") or (
            name.startswith("wal-") and name.endswith(".log")
        ):
            try:
                os.unlink(os.path.join(data_dir, name))
            except OSError:
                pass


# ---------------------------------------------------------------------------
# The durability log
# ---------------------------------------------------------------------------


class _WalFile:
    """One append-only, unbuffered WAL file.

    Unbuffered so that every acked append is visible to the OS -- a
    process kill (the chaos crash model) loses nothing that was acked.
    ``fsync`` is the separate, optional power-loss barrier.
    """

    __slots__ = ("path", "_handle")

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "ab", buffering=0)

    def append(self, payload: bytes) -> bytes:
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        # The fault point may corrupt the record as written (bit rot on
        # the way to flash) or raise (write failure).  The *clean* record
        # is returned for observers (replication ships what the server
        # journaled, not what local bit rot mangled).
        self._handle.write(fault_point("wal.append", record))
        return record

    def sync(self) -> None:
        fault_point("wal.fsync")
        os.fsync(self._handle.fileno())

    def fileno(self) -> int:
        return self._handle.fileno()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class DurabilityLog:
    """Owns the data directory of one :class:`ReportServer`.

    Layout: ``wal-meta.log`` (registrations, takedowns),
    ``wal-000.log .. wal-NNN.log`` (accepted reports, one per shard),
    ``snapshot.bin`` (last verified compaction).
    """

    def __init__(
        self,
        data_dir: str,
        shard_count: int,
        metrics: MetricsRegistry,
        *,
        snapshot_every: int = 1024,
        fsync: bool = False,
    ) -> None:
        if shard_count < 1:
            raise DurabilityError("need at least one shard")
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.shard_count = shard_count
        self.metrics = metrics
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self._appends_since_snapshot = 0
        self._meta: Optional[_WalFile] = None
        self._shards: List[Optional[_WalFile]] = [None] * shard_count
        self._observers: List = []

    def add_observer(self, observer) -> None:
        """Subscribe to durable events (the WAL is the replication log).

        ``observer(event, index, payload)`` fires *after* the bytes are
        durable: ``("record", shard_index_or_-1_for_meta, record)`` for
        every successful append, ``("snapshot", -1, file_image)`` after
        every successful compaction.
        """
        self._observers.append(observer)

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> None:
        """Open (and create) every WAL for append."""
        if self._meta is None:
            self._meta = _WalFile(wal_path(self.data_dir, -1))
        for index in range(self.shard_count):
            if self._shards[index] is None:
                self._shards[index] = _WalFile(wal_path(self.data_dir, index))

    def close(self) -> None:
        if self._meta is not None:
            self._meta.close()
            self._meta = None
        for index, wal in enumerate(self._shards):
            if wal is not None:
                wal.close()
                self._shards[index] = None

    # -- appends ------------------------------------------------------------

    def append_report(
        self, app_name: str, report: DetectionReport, shard_index: int
    ) -> bool:
        return self._append(
            self._shards[shard_index],
            encode_report_record(app_name, report),
            shard_index,
        )

    def append_takedown(self, app_name: str, key_hex: str, ts: float) -> bool:
        return self._append(
            self._meta, encode_takedown_record(app_name, key_hex, ts), -1
        )

    def append_register(self, app_name: str, original_key_hex: str) -> bool:
        return self._append(
            self._meta, encode_register_record(app_name, original_key_hex), -1
        )

    def append_epoch(self, epoch: int) -> bool:
        return self._append(self._meta, encode_epoch_record(epoch), -1)

    def _append(
        self, wal: Optional[_WalFile], payload: bytes, index: int = -1
    ) -> bool:
        if wal is None:
            raise DurabilityError("durability log is not open")
        try:
            record = wal.append(payload)
            if self.fsync:
                wal.sync()
        except (OSError, ReproError):
            self.metrics.counter("wal.failures").inc()
            return False
        self.metrics.counter("wal.appends").inc()
        self._appends_since_snapshot += 1
        for observer in self._observers:
            observer("record", index, record)
        return True

    # -- compaction ---------------------------------------------------------

    def maybe_compact(self, server) -> bool:
        if self._appends_since_snapshot < self.snapshot_every:
            return False
        return self.compact(server)

    def compact(self, server) -> bool:
        """Snapshot the server's durable state and truncate the WALs.

        The temp file is re-read and crc-verified before the atomic
        rename; any corruption or failure aborts and keeps the WAL, so
        a bad compaction can never lose journaled records.
        """
        payload = encode_snapshot(server._snapshot_state())
        crc = zlib.crc32(payload)
        wals = [wal for wal in [self._meta, *self._shards] if wal is not None]
        try:
            written = fault_point("snapshot.write", payload)
            install_snapshot(
                self.data_dir, snapshot_image(written, crc), wals, self.metrics
            )
        except (OSError, ReproError):
            self.metrics.counter("snapshot.failures").inc()
            return False
        self._appends_since_snapshot = 0
        self.metrics.counter("snapshot.compactions").inc()
        # Followers mirror the compaction: a full snapshot file image
        # supersedes (and truncates) their shipped WALs.
        image = snapshot_image(payload, crc)
        for observer in self._observers:
            observer("snapshot", -1, image)
        return True

    # -- recovery -----------------------------------------------------------

    def load_snapshot(self) -> Optional[dict]:
        """Decode the last snapshot, or None (missing / corrupt)."""
        payload = _read_snapshot_payload(snapshot_path(self.data_dir), self.metrics)
        if payload is None:
            return None
        try:
            state = decode_snapshot(payload)
        except WireError:
            self.metrics.counter("recovery.corrupt_snapshots").inc()
            return None
        self.metrics.counter("snapshot.loads").inc()
        return state

    def replay(self) -> Iterator[Tuple]:
        """Yield every decoded record: meta WAL first, then each shard.

        A torn or bit-flipped record ends that file's replay, is
        counted in ``recovery.torn_records``, and the file is truncated
        back to its last intact record so future appends stay parseable.
        """
        for index in range(-1, self.shard_count):
            path = wal_path(self.data_dir, index)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue
            offset = 0
            while offset + _HEADER.size <= len(data):
                length, crc = _HEADER.unpack_from(data, offset)
                end = offset + _HEADER.size + length
                if end > len(data):
                    break  # torn tail: record outruns the file
                payload = data[offset + _HEADER.size : end]
                if zlib.crc32(payload) != crc:
                    break  # bit rot (or a torn header mid-file)
                try:
                    record = decode_record(payload)
                except WireError:
                    self.metrics.counter("recovery.skipped_records").inc()
                else:
                    self.metrics.counter("wal.replayed").inc()
                    yield record
                offset = end
            if offset < len(data):
                self.metrics.counter("recovery.torn_records").inc()
                with open(path, "r+b") as handle:
                    handle.truncate(offset)
