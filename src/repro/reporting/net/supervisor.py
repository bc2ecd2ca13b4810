"""Cluster supervision: leader health, automatic promotion, fencing.

The PR-7 cluster could fail over, but only by hand (``repro replica
--promote``), and nothing stopped a *stale* leader -- partitioned away
rather than dead -- from accepting writes after the promotion
(split-brain, which breaks the exactly-once verdict math).  This module
closes both gaps with one deliberately small state machine:

* :func:`probe_health` asks a node for its :class:`HealthStatus` over
  the ingest port's control plane (``HLTH`` preamble).  A probe that
  cannot connect, times out, or is chaos-eaten (``net.heartbeat_loss``)
  is a **miss**.
* :class:`ClusterSupervisor` ticks on a deterministic timer.
  ``miss_threshold`` consecutive misses declare the leader dead; the
  supervisor promotes the **most-caught-up follower** (highest durable
  ``applied`` -- catch-up is measured in fsynced records, never in
  heartbeats), which bumps the **epoch** through the meta WAL, then
  **fences** the old endpoint with :func:`send_fence`.
* Fencing is what makes a surviving stale leader harmless: a fenced
  node answers every write ``NOT_LEADER(epoch, new_endpoint)`` without
  touching its server, so its books stay flat and clients re-route.
  A fence can itself be lost (``net.stale_leader``); the supervisor
  keeps re-fencing on later ticks until the old node acknowledges or
  stays unreachable past its retry budget.

**Determinism.**  ``tick()`` does one bounded step and is driven either
by the caller (tests, fleet: virtual time, zero sleeps) or by ``run()``
on a daemon thread with seeded jitter.  The supervisor itself is
allowed to crash (``net.supervisor_crash`` raises inside ``tick``): a
crash resets the miss counter -- a restarted supervisor has no memory
of in-flight suspicion -- which is exactly the conservatism that keeps
a flapping supervisor from promoting on stale evidence.

**Epoch invariants** (checked by the chaos matrix):

1. Epochs only grow, and every promotion grows one: the promoted
   server's epoch strictly exceeds anything the old leader served.
2. A fence applies only with an epoch above the target's own -- a
   delayed fence from an earlier failover can never demote a newer
   leader.
3. Post-fence, the old leader accepts zero writes; every client that
   reaches it is redirected to the epoch's endpoint.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.chaos.faults import fault_point
from repro.errors import FaultInjected, ReportingError, TransportError
from repro.reporting.net.framing import (
    FENCE_MAGIC,
    HEALTH_MAGIC,
    HealthStatus,
    encode_fence,
    format_endpoint,
    recv_exact,
    recv_health,
)
from repro.reporting.net.replication import ReplicaFollower
from repro.reporting.net.service import ServiceHandle
from repro.reporting.server import ReportServer

__all__ = [
    "FENCE_ATTEMPTS",
    "MISS_THRESHOLD",
    "ClusterSupervisor",
    "FailoverEvent",
    "probe_health",
    "send_fence",
]


#: Consecutive missed probes that declare the leader dead.
MISS_THRESHOLD = 3

#: Fence deliveries tried per failover before a silent old leader is
#: taken for dead (a dead node needs no fence).
FENCE_ATTEMPTS = 25


def probe_health(
    endpoint: Tuple[str, int], timeout: float = 2.0
) -> HealthStatus:
    """One health probe over the ingest port's control plane.

    Raises ``OSError``/:class:`TransportError` when the node is down and
    :class:`~repro.errors.FaultInjected` when ``net.heartbeat_loss`` is
    armed -- callers treat all three as a missed heartbeat.
    """
    fault_point("net.heartbeat_loss")
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(HEALTH_MAGIC)
        return recv_health(sock)


def send_fence(
    endpoint: Tuple[str, int],
    epoch: int,
    new_endpoint: str,
    timeout: float = 2.0,
) -> bool:
    """Ask the node at ``endpoint`` to fence itself behind ``epoch``.

    Returns True when the node applied the fence, False when it refused
    (stale epoch, or the fence was chaos-eaten on the node).  Raises
    ``OSError`` when the node is unreachable -- a dead node needs no
    fence.
    """
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(FENCE_MAGIC + encode_fence(epoch, new_endpoint))
        answer = recv_exact(sock, 1)
    return answer == b"\x01"


@dataclass(frozen=True)
class FailoverEvent:
    """One completed automatic failover (the MTTR bench's raw data)."""

    epoch: int
    endpoint: Tuple[str, int]
    #: Seconds from the first missed heartbeat to the dead declaration.
    detection_seconds: float
    #: Seconds from the dead declaration to the promoted node serving.
    promotion_seconds: float
    #: The promoted follower's durable applied count at promotion.
    follower_applied: int


class ClusterSupervisor:
    """Watches one leader; promotes the most-caught-up follower on death.

    ``tick()`` is the whole protocol -- drive it from a test loop for
    virtual time, or ``start()`` a daemon thread that ticks every
    ``interval`` seconds (jitter seeded from the first follower's
    ``data_dir``, so supervisors of different standbys do not probe in
    lockstep).
    """

    def __init__(
        self,
        leader_endpoint: Tuple[str, int],
        followers: Sequence[ReplicaFollower],
        *,
        server_kwargs: Optional[dict] = None,
        miss_threshold: int = MISS_THRESHOLD,
        interval: float = 0.5,
        probe_timeout: float = 2.0,
        promote_host: str = "127.0.0.1",
        promote_port: int = 0,
    ) -> None:
        if miss_threshold < 1:
            raise ReportingError("miss_threshold must be >= 1")
        if not followers:
            raise ReportingError("a supervisor needs at least one follower")
        self.leader_endpoint = (leader_endpoint[0], int(leader_endpoint[1]))
        self.followers: List[ReplicaFollower] = list(followers)
        self.server_kwargs = dict(server_kwargs or {})
        self.miss_threshold = miss_threshold
        self.interval = interval
        self.probe_timeout = probe_timeout
        self.promote_host = promote_host
        self.promote_port = promote_port
        # Jitter only: tick() never draws from it, so replay digests
        # cannot move.  Seeded per standby directory so that
        # supervisors of different followers drift apart.
        self._rng = random.Random(f"supervisor:{self.followers[0].data_dir}")

        # Observability -- everything the chaos matrix asserts on.
        self.misses = 0
        self.heartbeats_seen = 0
        self.crashes = 0
        self.failovers = 0
        self.fences_sent = 0
        self.fences_acked = 0
        self.leader_epoch = 0
        self.last_health: Optional[HealthStatus] = None
        self.event: Optional[FailoverEvent] = None
        self.error: Optional[BaseException] = None

        self.promoted_server: Optional[ReportServer] = None
        self.promoted_handle: Optional[ServiceHandle] = None
        self._first_miss_at: Optional[float] = None
        self._fenced = False
        self._fence_tries = 0
        self._stop_flag = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- routing ------------------------------------------------------------

    def endpoint(self) -> Tuple[str, int]:
        """Where clients should write *now* (re-points after failover)."""
        if self.promoted_handle is not None:
            return self.promoted_handle.address
        return self.leader_endpoint

    @property
    def fenced(self) -> bool:
        """True once the demoted leader acknowledged the fence."""
        return self._fenced

    # -- the protocol -------------------------------------------------------

    def tick(self) -> bool:
        """One supervision step; True when this tick performed a failover.

        Deterministic given the probe outcomes: no sleeps, no wall-clock
        decisions (``time.monotonic`` only timestamps the event record).
        """
        try:
            fault_point("net.supervisor_crash")
        except FaultInjected:
            # The supervisor process died and restarted: it remembers
            # its cluster config (construction args) but not in-flight
            # suspicion -- conservative by design.
            self.crashes += 1
            self.misses = 0
            self._first_miss_at = None
            return False
        if self.promoted_handle is not None:
            self._refence_stale_leader()
            return False
        try:
            health = probe_health(
                self.leader_endpoint, timeout=self.probe_timeout
            )
        except (OSError, TransportError, FaultInjected, ReportingError):
            self.misses += 1
            if self._first_miss_at is None:
                self._first_miss_at = time.monotonic()
            if self.misses >= self.miss_threshold:
                self.failover()
                return True
            return False
        self.misses = 0
        self._first_miss_at = None
        self.heartbeats_seen += 1
        self.last_health = health
        if health.epoch > self.leader_epoch:
            self.leader_epoch = health.epoch
        return False

    def failover(self) -> FailoverEvent:
        """Promote the most-caught-up follower and fence the old leader."""
        declared_at = time.monotonic()
        first_miss = self._first_miss_at
        detection = declared_at - first_miss if first_miss is not None else 0.0
        follower = max(self.followers, key=lambda f: f.applied)
        for other in self.followers:
            if other is not follower:
                other.stop()
        kwargs = dict(self.server_kwargs)
        if follower.shard_count is not None:
            kwargs.setdefault("shards", follower.shard_count)
        server = follower.promote(**kwargs)  # bumps the epoch durably
        server.process()
        handle = ServiceHandle.start(
            server, host=self.promote_host, port=self.promote_port
        )
        self.promoted_server = server
        self.promoted_handle = handle
        self.failovers += 1
        self.leader_epoch = server.epoch
        self.event = FailoverEvent(
            epoch=server.epoch,
            endpoint=handle.address,
            detection_seconds=detection,
            promotion_seconds=time.monotonic() - declared_at,
            follower_applied=follower.applied,
        )
        self._fenced = False
        self._fence_tries = 0
        self._refence_stale_leader()
        return self.event

    def _refence_stale_leader(self) -> None:
        """Fence (and keep fencing) the demoted endpoint.

        A dead leader refuses the connection -- nothing to fence.  A
        *live* one (partition, not death) must acknowledge the fence;
        until it does, every tick retries, bounded by
        :data:`FENCE_ATTEMPTS` so a permanently dead endpoint does not buy
        a connect attempt per tick forever.
        """
        if self._fenced or self._fence_tries >= FENCE_ATTEMPTS:
            return
        self._fence_tries += 1
        self.fences_sent += 1
        new_endpoint = format_endpoint(self.promoted_handle.address)
        try:
            acked = send_fence(
                self.leader_endpoint,
                self.promoted_server.epoch,
                new_endpoint,
                timeout=self.probe_timeout,
            )
        except (OSError, TransportError):
            return  # unreachable: dead, or will be re-tried next tick
        if acked:
            self.fences_acked += 1
            self._fenced = True

    # -- threaded driver ----------------------------------------------------

    def start(self) -> "ClusterSupervisor":
        """Tick on a daemon thread every ``interval`` seconds."""
        if self._thread is not None:
            raise ReportingError("supervisor already started")
        self._thread = threading.Thread(
            target=self.run, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def run(self) -> None:
        """Blocking tick loop (the ``repro supervise`` process body)."""
        while not self._stop_flag.is_set():
            try:
                self.tick()
            except BaseException as exc:  # noqa: BLE001 - surfaced to owner
                self.error = exc
                return
            # Seeded jitter (+/-10%) so cohorts of supervisors spread out.
            delay = self.interval * (0.9 + 0.2 * self._rng.random())
            self._stop_flag.wait(delay)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop ticking; the promoted handle (if any) stays up."""
        self._stop_flag.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop ticking and gracefully stop anything we promoted."""
        self.stop(timeout)
        if self.promoted_handle is not None:
            self.promoted_handle.stop(timeout)
