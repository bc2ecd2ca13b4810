"""One assembler for a replicated, supervised report cluster.

The fleet driver's failover run, the kill-the-leader chaos matrix and
the MTTR bench all build their cluster here, so the wiring -- and the
rule "promote with the dead leader's server config" -- lives in one
place.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.errors import ReportingError
from repro.reporting.net.replication import ReplicaFollower
from repro.reporting.net.service import ServiceHandle
from repro.reporting.net.supervisor import ClusterSupervisor
from repro.reporting.server import ReportServer

__all__ = ["Cluster", "MAX_TICKS"]

#: Ticks :meth:`Cluster.tick_until_promoted` allows; a failover that
#: needs more is a bug, not a slow link.
MAX_TICKS = 64


class Cluster:
    """A durable leader, its ingest service, one warm standby and the
    (not yet ticking) supervisor that would promote it after
    :data:`~repro.reporting.net.supervisor.MISS_THRESHOLD` missed
    probes.

    The leader is built, and the follower later promoted, with the
    :class:`ReportServer` keywords in ``server_config``.  The
    constructor returns once the follower holds the leader's bootstrap
    snapshot (so an immediate kill still promotes every app), or stops
    what it started and raises :class:`ReportingError`.
    """

    def __init__(
        self,
        leader_dir: str,
        replica_dir: str,
        server_config: Mapping[str, object],
        apps: Mapping[str, str],
        *,
        heartbeat_interval: float = 0.5,
    ) -> None:
        self.handle: Optional[ServiceHandle] = None
        self.follower: Optional[ReplicaFollower] = None
        self.supervisor: Optional[ClusterSupervisor] = None
        self._leader_killed = False
        self._down = False
        self.leader = ReportServer(data_dir=leader_dir, **server_config)
        try:
            for app_name, original_key_hex in apps.items():
                self.leader.register_app(app_name, original_key_hex)
            self.handle = ServiceHandle.start(
                self.leader,
                replication_port=0,
                heartbeat_interval=heartbeat_interval,
            )
            #: The leader's ingest address; survives :meth:`kill_leader`.
            self.leader_endpoint: Tuple[str, int] = self.handle.address
            self.follower = ReplicaFollower(
                replica_dir,
                self.handle.replication_address,
                expect_shards=self.leader.shard_count,
            ).start()
            if not self.follower.wait_applied(1):
                raise ReportingError("replica follower never bootstrapped")
            self.supervisor = ClusterSupervisor(
                self.leader_endpoint,
                [self.follower],
                server_kwargs=dict(server_config),
                interval=heartbeat_interval,  # probe at the heartbeat cadence
                probe_timeout=0.5,  # loopback: a slower answer is a miss
            )
        except BaseException:
            self.shutdown()
            raise

    def kill_leader(self) -> None:
        """SIGKILL model: the service dies undrained, the WAL unclosed."""
        self._leader_killed = True
        self.handle.kill()
        self.leader.crash()

    def tick_until_promoted(self) -> int:
        """Tick the supervisor until it promotes; returns the ticks taken.

        Raises :class:`ReportingError` after :data:`MAX_TICKS` ticks.
        """
        for ticks in range(1, MAX_TICKS + 1):
            self.supervisor.tick()
            if self.supervisor.failovers:
                return ticks
        raise ReportingError(
            f"supervisor never promoted the follower in {MAX_TICKS} ticks"
        )

    def endpoint(self) -> Tuple[str, int]:
        """Where clients should write now; follows the promotion."""
        return self.supervisor.endpoint()

    def shutdown(self) -> None:
        """Stop every thread the cluster started; idempotent, and safe
        on a partly built cluster.  The promoted server, and a leader
        that was never killed, compact and close their logs."""
        if self._down:
            return
        self._down = True
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.shutdown()
            if supervisor.promoted_server is not None:
                supervisor.promoted_server.close()
        if self.follower is not None:
            self.follower.stop()
        if self.handle is not None:
            self.handle.stop()
        if not self._leader_killed:
            self.leader.close()
