"""Leader -> follower replication by WAL shipping.

The per-shard crc32-framed records :mod:`repro.reporting.durability`
journals *are* the replication log -- no second format, no translation.
The leader (inside :class:`~repro.reporting.net.service.IngestService`)
observes every successful WAL append and every successful compaction
and relays them verbatim; this module is the other end of that stream:

* :class:`ReplicaFollower` maintains a warm standby data directory over
  a plain blocking socket (its own thread; the follower is a client,
  not a service): HELLO resets the directory, SNAPSHOT installs the
  shipped image exactly as the leader's compaction does
  (:func:`~repro.reporting.durability.install_snapshot`: checked, then
  the WALs truncated; an image that fails the check fails the follower
  and leaves its directory as it was), RECORD appends verbatim to the
  same-named WAL file, and an ACK with the cumulative applied count is
  sent only *after* the touched files are fsynced -- the leader's
  replica-lag gauge measures durable progress, not buffered bytes.

**Failover is snapshot+replay.**  ``promote()`` closes the follower's
files and hands the directory to ``ReportServer.recover`` -- the exact
crash-recovery path PR 4 proved exactly-once, which is why a promoted
follower cannot double-count a device: every shipped record carries the
original ``(device, nonce)`` and replay dedups on it.

**What failover can lose.**  Shipping is asynchronous: records the dead
leader journaled but never relayed (or relayed but never delivered) are
gone, exactly like any async-replicated store.  They were *acked* to
their clients, so those devices do not resend -- the convergence claim
the bench asserts is therefore about the *verdict*, which tolerates a
bounded tail loss because takedown evidence keeps arriving after the
promotion.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
from typing import Dict, Optional, Tuple

from repro.errors import ReportingError, ReproError
from repro.reporting.durability import clear_data_dir, install_snapshot, wal_path
from repro.reporting.net.framing import (
    META_WAL,
    MSG_ACK,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RECORD,
    MSG_SNAPSHOT,
    HealthStatus,
    MessageReader,
    decode_health,
    encode_message,
)
from repro.reporting.server import ReportServer

#: Receive timeout: how often an idle follower re-checks its stop flag.
POLL_INTERVAL = 0.2


class ReplicaFollower:
    """Warm-standby follower of one leader's WAL stream.

    Runs on its own thread (``start()``) or in the caller's
    (``run()``, which blocks until the leader hangs up or ``stop()``).
    ``promote()`` turns the followed directory into a live
    :class:`ReportServer` via the crash-recovery path.
    """

    def __init__(
        self,
        data_dir: str,
        leader: Tuple[str, int],
        *,
        expect_shards: Optional[int] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.leader = (leader[0], int(leader[1]))
        self.expect_shards = expect_shards
        self.connect_timeout = connect_timeout

        #: Cumulative applied updates (snapshots + records); what ACKs carry.
        self.applied = 0
        #: Snapshot images applied (1 bootstrap + one per leader compaction).
        self.snapshots = 0
        #: Heartbeats received; ``leader_epoch`` is the last one's epoch.
        self.heartbeats = 0
        self.leader_epoch = 0
        self.shard_count: Optional[int] = None
        self.error: Optional[BaseException] = None

        # ``applied``/``error`` transitions signal this condition so
        # ``wait_applied`` wakes on progress instead of busy-polling.
        self._progress = threading.Condition()
        self._stop_flag = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._files: Dict[int, "io.FileIO"] = {}  # noqa: F821 - doc only
        self._sock: Optional[socket.socket] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ReplicaFollower":
        """Follow on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise ReportingError("follower already started")
        self._thread = threading.Thread(
            target=self.run, name="repro-replica", daemon=True
        )
        self._thread.start()
        return self

    def run(self) -> None:
        """Follow the leader until EOF or ``stop()`` (blocking)."""
        try:
            self._follow()
        except (OSError, ReproError) as exc:
            with self._progress:
                self.error = exc
                self._progress.notify_all()
        finally:
            self._close_files()
            sock, self._sock = self._sock, None
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    def stop(self, timeout: float = 10.0) -> None:
        """Stop following; joins the thread when one is running."""
        self._stop_flag.set()
        with self._progress:
            self._progress.notify_all()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)

    def wait_applied(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``applied >= count`` (False on timeout).

        Wakes on the apply notification itself -- no poll interval --
        so a supervisor waiting for a follower to catch up pays only
        the actual replication latency.
        """
        deadline = time.monotonic() + timeout
        with self._progress:
            while self.applied < count:
                if self.error is not None:
                    raise ReportingError(
                        f"replica follower failed: {self.error}"
                    ) from self.error
                if self._stop_flag.is_set():
                    return False  # stop() wakes waiters rather than strand them
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._progress.wait(remaining)
        return True

    def health(self) -> HealthStatus:
        """This follower's view of itself (supervisor catch-up input)."""
        return HealthStatus(
            epoch=self.leader_epoch,
            role="follower",
            applied=self.applied,
        )

    def promote(self, **server_kwargs) -> ReportServer:
        """Stop following and recover a live server from the directory.

        ``server_kwargs`` must match the dead leader's configuration
        (``shards`` in particular), exactly as for
        :meth:`ReportServer.recover` after a local crash.
        """
        self.stop()
        if self.error is not None:
            raise ReportingError(
                f"cannot promote a failed follower: {self.error}"
            ) from self.error
        server = ReportServer.recover(self.data_dir, **server_kwargs)
        # The promoted leader's epoch must strictly exceed every epoch
        # the old leader served under: recovery replayed the shipped
        # epoch records, heartbeats carried the live value -- bump past
        # the larger of the two (at least once).
        target = max(self.leader_epoch, server.epoch)
        while server.epoch <= target:
            server.bump_epoch()
        return server

    # -- the follow loop ----------------------------------------------------

    def _connect(self) -> socket.socket:
        # Retry refusals until the deadline: a follower is routinely
        # started in parallel with (or just before) its leader, and a
        # refused connect only means the listener isn't up *yet*.
        deadline = time.monotonic() + self.connect_timeout
        while True:
            remaining = max(0.05, deadline - time.monotonic())
            try:
                return socket.create_connection(self.leader, timeout=remaining)
            except ConnectionRefusedError:
                if time.monotonic() >= deadline or self._stop_flag.is_set():
                    raise
                time.sleep(min(0.05, remaining))

    def _follow(self) -> None:
        sock = self._connect()
        self._sock = sock
        # Short receive timeout: the loop polls the stop flag between
        # reads instead of blocking forever on an idle leader.
        sock.settimeout(POLL_INTERVAL)
        reader = MessageReader()
        while not self._stop_flag.is_set():
            try:
                data = sock.recv(1 << 16)
            except socket.timeout:
                continue
            except OSError:
                break
            if not data:
                break  # leader hung up (shutdown or death)
            applied = 0
            dirty = []
            for kind, payload in reader.feed(data):
                applied += self._apply(kind, payload, dirty)
            # One fsync per receive chunk, not per record: natural
            # batching, and the ACK below only ever claims durable work.
            for handle in dirty:
                os.fsync(handle.fileno())
            if applied:
                with self._progress:
                    self.applied += applied
                    self._progress.notify_all()
                try:
                    sock.sendall(
                        encode_message(MSG_ACK, struct.pack(">Q", self.applied))
                    )
                except OSError:
                    break

    def _apply(self, kind: bytes, payload: bytes, dirty: list) -> int:
        if kind == MSG_HELLO:
            if len(payload) != 1:
                raise ReportingError("malformed replication HELLO")
            self.shard_count = payload[0]
            if self.expect_shards is not None and self.shard_count != self.expect_shards:
                raise ReportingError(
                    f"leader runs {self.shard_count} shard(s), follower "
                    f"expected {self.expect_shards}"
                )
            self._reset_dir()
            return 0
        if kind == MSG_SNAPSHOT:
            # The leader's compaction, mirrored: checked, renamed, then
            # the WALs truncated.  A bad image raises before any change.
            install_snapshot(self.data_dir, payload, self._files.values())
            dirty.extend(h for h in self._files.values() if h not in dirty)
            self.snapshots += 1
            return 1
        if kind == MSG_RECORD:
            if not payload:
                raise ReportingError("empty replication RECORD")
            handle = self._wal_handle(payload[0])
            handle.write(payload[1:])
            if handle not in dirty:
                dirty.append(handle)
            return 1
        if kind == MSG_HEARTBEAT:
            # Liveness beat: remember the leader's epoch (promotion must
            # exceed it) but never advance ``applied`` -- catch-up is
            # measured in durable records, not beats.
            health = decode_health(payload)
            self.heartbeats += 1
            if health.epoch > self.leader_epoch:
                self.leader_epoch = health.epoch
            return 0
        if kind == MSG_ACK:
            return 0  # ours to send, not to receive; tolerate echoes
        raise ReportingError(f"unknown replication message {kind!r}")

    # -- the followed directory ---------------------------------------------

    def _wal_handle(self, index: int):
        handle = self._files.get(index)
        if handle is None:
            if index != META_WAL and (
                self.shard_count is None or index >= self.shard_count
            ):
                raise ReportingError(f"RECORD for out-of-range shard {index}")
            path = wal_path(self.data_dir, -1 if index == META_WAL else index)
            handle = self._files[index] = open(path, "ab", buffering=0)
        return handle

    def _reset_dir(self) -> None:
        """HELLO means a full bootstrap follows: start from nothing.

        Any earlier followed state (a previous leader, a stale copy) is
        superseded by the incoming snapshot; keeping old WAL bytes would
        replay another timeline's records into the promoted server.
        """
        self._close_files()
        clear_data_dir(self.data_dir)
        self._wal_handle(META_WAL)
        for index in range(self.shard_count or 0):
            self._wal_handle(index)

    def _close_files(self) -> None:
        files, self._files = self._files, {}
        for handle in files.values():
            try:
                handle.close()
            except OSError:
                pass
