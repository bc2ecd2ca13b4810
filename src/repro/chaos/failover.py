"""Kill-the-leader chaos: automatic failover under seeded failures.

The ``repro chaos --failover`` driver.  Where :mod:`.crash` kills a
*single* durable server and recovers it in place, this matrix kills (or
partitions) the **leader of a replicated cluster** mid-stream and lets
the :class:`~repro.reporting.net.supervisor.ClusterSupervisor` heal it
-- zero manual ``--promote`` anywhere.  Every trial runs real sockets:
a :class:`~repro.reporting.net.cluster.Cluster` (ingest service,
WAL-shipping follower, tick-driven supervisor) and
:class:`TcpTransport` clients that must re-route themselves.

Scenarios (all over the same pirated report stream):

``sigkill``           the leader dies outright (``kill()`` + ``crash()``)
``partition``         the leader *survives* but the supervisor's probes
                      are chaos-eaten (``net.heartbeat_loss``) -- the
                      promoted epoch must fence the live stale leader
``slow_link``         leader dies; clients drain through ``net.slow_link``
                      latency skew on the way to the new leader
``stale_leader``      partition, plus the first fence is dropped at the
                      old leader (``net.stale_leader``) -- the
                      supervisor must re-fence until it sticks
``supervisor_crash``  leader dies and the supervisor itself crashes
                      twice mid-tick (``net.supervisor_crash``),
                      resetting its suspicion -- failover still happens

Invariants, asserted per trial:

* exactly one **automatic** promotion (the trial never calls promote);
* the promoted epoch strictly exceeds the old leader's;
* every report acked before the kill answers ``DUPLICATE`` on the new
  leader (the dedup window survived the failover);
* the union of accepted ``(device, nonce)`` pairs across the failover
  equals an uninterrupted baseline -- nothing lost, nothing doubled;
* a fenced stale leader accepts **zero** post-promotion writes, and
  every client that reaches it is redirected (and lands) on the new
  leader within the same delivery attempt;
* the post-failover verdict (and offender key) is bit-equal to the
  uninterrupted baseline's, with exactly one takedown.

Timings are real (sockets, threads) and excluded from the replay
digest; every *count* in the digest is a pure function of the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.chaos.faults import FaultPlan, active_plan
from repro.chaos.matrix import (
    ORIGINAL_KEY,
    PIRATE_KEY,
    POLICY,
    SHARDS,
    MatrixReport,
    ScenarioMatrix,
    send,
)
from repro.errors import ReportingError
from repro.reporting.net.cluster import MAX_TICKS, Cluster
from repro.reporting.net.transport import TcpTransport
from repro.reporting.server import ReportServer, SubmitStatus
from repro.reporting.wire import SignedReport

FAILOVER_SCENARIOS = (
    "sigkill",
    "partition",
    "slow_link",
    "stale_leader",
    "supervisor_crash",
)

#: Scenarios whose old leader survives the failure (and must be fenced).
_LIVE_LEADER = ("partition", "stale_leader")

_APP = "FailoverApp"

#: Leader and promoted follower alike; snapshot_every keeps compaction
#: out of the counts.
_SERVER_CONFIG = dict(shards=SHARDS, policy=POLICY, snapshot_every=4096)


@dataclass
class FailoverChaosConfig:
    """Shape of one kill-the-leader run."""

    seed: int = 17
    reports: int = 30
    #: Stream offsets to kill at; empty derives an early and a late one.
    kill_offsets: Tuple[int, ...] = ()
    scenarios: Tuple[str, ...] = FAILOVER_SCENARIOS
    #: Parent directory for per-trial data dirs (None = a temp dir that
    #: is removed afterwards).
    data_dir: Optional[str] = None

    def offsets(self) -> Tuple[int, ...]:
        if self.kill_offsets:
            return tuple(self.kill_offsets)
        n = self.reports
        return tuple(sorted({max(1, n // 3), max(2, n - 5)}))


@dataclass
class FailoverTrialRecord:
    """What one kill-the-leader trial did and found."""

    scenario: str
    kill_offset: int
    accepted_before: int
    accepted_after: int
    duplicates_after: int
    ticks_to_failover: int
    supervisor_crashes: int
    fences_sent: int
    fences_acked: int
    stale_not_leader: int
    redirects: int
    epoch: int
    takedowns: int
    verdict: str
    offender: str
    violations: Tuple[str, ...]


class FailoverChaosReport(MatrixReport):
    """Everything a kill-the-leader run observed."""

    NAME = "failover"

    def _body(self) -> List[str]:
        return [
            f"promotions: {len(self.trials)} automatic, 0 manual; epochs "
            f"reached: {sorted({r.epoch for r in self.trials})}",
            f"fences: {sum(r.fences_sent for r in self.trials)} sent, "
            f"{sum(r.fences_acked for r in self.trials)} acked; stale "
            f"leaders answered NOT_LEADER "
            f"{sum(r.stale_not_leader for r in self.trials)} time(s), "
            f"accepted 0 post-promotion writes",
        ]


class FailoverChaosRunner(ScenarioMatrix):
    """Owns the deterministic stream; runs one cluster trial at a time."""

    APP = _APP
    REPORT = FailoverChaosReport
    TMP_PREFIX = "repro-failover-"

    def __init__(self, config: FailoverChaosConfig) -> None:
        self.config = config
        self._stream: Optional[List[SignedReport]] = None
        self._baseline: Optional[tuple] = None

    # -- deterministic inputs ----------------------------------------------

    def stream(self) -> List[SignedReport]:
        """The fixed, pre-signed pirated report stream."""
        if self._stream is None:
            self._stream = self.signed_stream(
                f"{self.config.seed}:failover",
                self.config.seed * 91 + 3,
                PIRATE_KEY,
            )
        return self._stream

    def baseline(self) -> tuple:
        """Uninterrupted in-memory run: (verdict, offender, accepted)."""
        if self._baseline is None:
            server = ReportServer(**_SERVER_CONFIG)
            server.register_app(_APP, ORIGINAL_KEY)
            accepted: Set[Tuple[str, int]] = set()
            for signed in self.stream():
                if server.submit(signed) is SubmitStatus.ACCEPTED:
                    accepted.add(
                        (signed.report.device_id, signed.report.nonce)
                    )
            server.process()
            verdict, offender = server.verdict(_APP)
            self._baseline = (verdict, offender, frozenset(accepted))
        return self._baseline

    # -- one trial ----------------------------------------------------------

    def _plan_for(self, scenario: str) -> FaultPlan:
        plan = FaultPlan(seed=self.config.seed)
        if scenario in _LIVE_LEADER:
            plan.arm("net.heartbeat_loss", "raise")
        if scenario == "stale_leader":
            plan.arm("net.stale_leader", "raise", max_fires=1)
        if scenario == "supervisor_crash":
            plan.arm("net.supervisor_crash", "raise", max_fires=2)
        if scenario == "slow_link":
            plan.arm("net.slow_link", "latency", magnitude=1)
        return plan

    def run_trial(
        self, scenario: str, kill_offset: int, trial_dir: str
    ) -> FailoverTrialRecord:
        cluster = Cluster(
            os.path.join(trial_dir, "leader"),
            os.path.join(trial_dir, "replica"),
            _SERVER_CONFIG,
            {_APP: ORIGINAL_KEY},
            heartbeat_interval=0.05,
        )
        try:
            return self._trial(cluster, scenario, kill_offset)
        finally:
            cluster.shutdown()

    def _trial(
        self, cluster: Cluster, scenario: str, kill_offset: int
    ) -> FailoverTrialRecord:
        config = self.config
        prefix = (
            f"[replay: --seed {config.seed}, {scenario}, kill@{kill_offset}]"
        )
        violations: List[str] = []
        stream = self.stream()
        expected_verdict, expected_offender, expected_accepted = self.baseline()

        # -- pre-kill traffic ----------------------------------------------
        leader_endpoint = cluster.leader_endpoint  # survives the kill below
        transport = TcpTransport([leader_endpoint])
        accepted_before: Set[Tuple[str, int]] = set()
        for i in range(kill_offset):
            send(transport, stream, i, accepted_before, violations, prefix)
        transport.close()
        # Catch-up barrier: the matrix asserts *lossless* failover, so
        # the follower must hold every acked record before the kill
        # (bootstrap snapshot counts as the first apply).
        if not cluster.follower.wait_applied(
            1 + len(accepted_before), timeout=10
        ):
            violations.append(
                f"{prefix} follower never caught up to "
                f"{len(accepted_before)} acked records"
            )

        # -- the failure + the supervised recovery -------------------------
        leader_alive = scenario in _LIVE_LEADER
        if not leader_alive:
            cluster.kill_leader()
        supervisor = cluster.supervisor
        with active_plan(self._plan_for(scenario)):
            try:
                ticks = cluster.tick_until_promoted()
            except ReportingError as exc:
                violations.append(f"{prefix} no automatic promotion: {exc}")
                return FailoverTrialRecord(
                    scenario=scenario, kill_offset=kill_offset,
                    accepted_before=len(accepted_before), accepted_after=0,
                    duplicates_after=0, ticks_to_failover=MAX_TICKS,
                    supervisor_crashes=supervisor.crashes,
                    fences_sent=supervisor.fences_sent,
                    fences_acked=supervisor.fences_acked,
                    stale_not_leader=0, redirects=0, epoch=0, takedowns=0,
                    verdict="none", offender="", violations=tuple(violations),
                )
            refence = 0
            while leader_alive and not supervisor.fenced and refence < MAX_TICKS:
                supervisor.tick()
                refence += 1
        promoted = supervisor.promoted_server
        promoted_handle = supervisor.promoted_handle
        if promoted.epoch <= cluster.leader.epoch:
            violations.append(
                f"{prefix} promoted epoch {promoted.epoch} does not exceed "
                f"the old leader's {cluster.leader.epoch}"
            )
        if leader_alive and not supervisor.fenced:
            violations.append(f"{prefix} live stale leader was never fenced")

        # -- exactly-once across the failover ------------------------------
        resend = TcpTransport([promoted_handle.address])
        duplicates_after = 0
        for i in range(kill_offset):
            signed = stream[i]
            pair = (signed.report.device_id, signed.report.nonce)
            if pair not in accepted_before:
                continue
            status = resend(signed)
            if status is SubmitStatus.DUPLICATE:
                duplicates_after += 1
            else:
                violations.append(
                    f"{prefix} pre-kill accepted report "
                    f"(device={signed.report.device_id}) came back "
                    f"{status.value} on the new leader, expected duplicate"
                )
        resend.close()

        # -- drain the rest; stale-leader scenarios drain *through* the
        # old endpoint so the NOT_LEADER redirect path carries real load.
        stale_accepted_floor = 0
        if leader_alive:
            stale_accepted_floor = cluster.handle.call(
                lambda s: int(s.metrics.counter("reporting.accepted").value)
            )
            drain = TcpTransport([leader_endpoint])
        else:
            drain = TcpTransport([promoted_handle.address])
        accepted_after: Set[Tuple[str, int]] = set()
        for i in range(kill_offset, config.reports):
            signed = stream[i]
            status = drain(signed)
            pair = (signed.report.device_id, signed.report.nonce)
            if status is SubmitStatus.ACCEPTED:
                if pair in accepted_before or pair in accepted_after:
                    violations.append(
                        f"{prefix} (device, nonce) {pair} accepted twice "
                        f"across the failover"
                    )
                accepted_after.add(pair)
            else:
                violations.append(
                    f"{prefix} post-failover report {i} answered "
                    f"{status.value}, expected accepted"
                )
        redirects = drain.redirects
        drain.close()

        stale_not_leader = 0
        if leader_alive:
            stale_accepted = cluster.handle.call(
                lambda s: int(s.metrics.counter("reporting.accepted").value)
            )
            if stale_accepted != stale_accepted_floor:
                violations.append(
                    f"{prefix} fenced stale leader accepted "
                    f"{stale_accepted - stale_accepted_floor} "
                    f"post-promotion write(s)"
                )
            stale_not_leader = cluster.handle.call(
                lambda s: int(
                    s.metrics.counter("reporting.net.not_leader").value
                )
            )
            if redirects < 1 or stale_not_leader < 1:
                violations.append(
                    f"{prefix} drain through the stale leader never hit "
                    f"the NOT_LEADER redirect path"
                )

        # -- convergence ----------------------------------------------------
        total_accepted = accepted_before | accepted_after
        if total_accepted != expected_accepted:
            lost = len(expected_accepted - total_accepted)
            extra = len(total_accepted - expected_accepted)
            violations.append(
                f"{prefix} accepted set diverged from uninterrupted run "
                f"({lost} lost, {extra} extra)"
            )
        verdict, offender = promoted_handle.call(
            lambda s: (s.process(), s.verdict(_APP))[1]
        )
        if (verdict, offender) != (expected_verdict, expected_offender):
            violations.append(
                f"{prefix} verdict {verdict.value}/{offender[:16]} differs "
                f"from uninterrupted run "
                f"{expected_verdict.value}/{expected_offender[:16]}"
            )
        takedowns = promoted_handle.call(
            lambda s: int(s.metrics.counter("reporting.takedowns").value)
        )
        if takedowns != 1:
            violations.append(
                f"{prefix} {takedowns} takedowns across the failover, "
                f"expected exactly 1"
            )
        return FailoverTrialRecord(
            scenario=scenario,
            kill_offset=kill_offset,
            accepted_before=len(accepted_before),
            accepted_after=len(accepted_after),
            duplicates_after=duplicates_after,
            ticks_to_failover=ticks,
            supervisor_crashes=supervisor.crashes,
            fences_sent=supervisor.fences_sent,
            fences_acked=supervisor.fences_acked,
            stale_not_leader=stale_not_leader,
            redirects=redirects,
            epoch=promoted.epoch,
            takedowns=takedowns,
            verdict=verdict.value,
            offender=offender,
            violations=tuple(violations),
        )


def run_failover_chaos(config: FailoverChaosConfig) -> FailoverChaosReport:
    """Run the kill-the-leader matrix, return the report."""
    return FailoverChaosRunner(config).run()
