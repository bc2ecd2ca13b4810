"""Networked report ingestion: TCP service, replication, supervision.

The socket-facing layer over the in-process
:class:`~repro.reporting.server.ReportServer`:

* :mod:`~repro.reporting.net.framing` -- incremental DRPT frame
  slicing, per-frame status bytes, replication message codec, and the
  cluster-control wire (health probes, fences, NOT_LEADER redirects).
* :mod:`~repro.reporting.net.service` -- the asyncio ingest service
  (:class:`IngestService`) and its daemon-thread host
  (:class:`ServiceHandle`).
* :mod:`~repro.reporting.net.replication` -- leader->follower WAL
  shipping (:class:`ReplicaFollower`) and failover by promotion.
* :mod:`~repro.reporting.net.supervisor` -- heartbeat monitoring,
  automatic promotion and epoch fencing (:class:`ClusterSupervisor`).
* :mod:`~repro.reporting.net.cluster` -- the one assembler of a
  leader, its warm-standby follower and their supervisor
  (:class:`Cluster`).
* :mod:`~repro.reporting.net.transport` -- the device-side
  :class:`TcpTransport` plugged into ``ReportClient`` (multi-endpoint,
  redirect-following).
"""

from repro.reporting.net.framing import (
    FENCE_MAGIC,
    HEALTH_MAGIC,
    META_WAL,
    MSG_ACK,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RECORD,
    MSG_SNAPSHOT,
    FrameReader,
    HealthStatus,
    MessageReader,
    decode_health,
    decode_redirect,
    decode_status,
    encode_health,
    encode_message,
    encode_redirect,
    encode_status,
    format_endpoint,
    parse_endpoint,
)
from repro.reporting.net.replication import ReplicaFollower
from repro.reporting.net.service import (
    INGEST_BUCKETS,
    ConnStats,
    IngestService,
    ServiceHandle,
)
from repro.reporting.net.supervisor import (
    ClusterSupervisor,
    FailoverEvent,
    probe_health,
    send_fence,
)
from repro.reporting.net.transport import TcpTransport
from repro.reporting.net.cluster import Cluster

__all__ = [
    "FENCE_MAGIC",
    "HEALTH_MAGIC",
    "META_WAL",
    "MSG_ACK",
    "MSG_HEARTBEAT",
    "MSG_HELLO",
    "MSG_RECORD",
    "MSG_SNAPSHOT",
    "FrameReader",
    "HealthStatus",
    "MessageReader",
    "decode_health",
    "decode_redirect",
    "decode_status",
    "encode_health",
    "encode_message",
    "encode_redirect",
    "encode_status",
    "format_endpoint",
    "parse_endpoint",
    "ReplicaFollower",
    "INGEST_BUCKETS",
    "ConnStats",
    "IngestService",
    "ServiceHandle",
    "ClusterSupervisor",
    "FailoverEvent",
    "probe_health",
    "send_fence",
    "TcpTransport",
    "Cluster",
]
