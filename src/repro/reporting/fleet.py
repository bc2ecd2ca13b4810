"""Fleet-scale driver: millions of devices through the report pipeline.

The ROADMAP north star is "heavy traffic from millions of users"; the
paper's Table 3 protocol (one interpreter session per device) tops out
around tens of devices.  This driver closes the gap by splitting the
work the way a load generator would:

1. **Calibrate** an :class:`OutcomeModel` from a handful of *real*
   interpreter play sessions (:mod:`repro.userside.simulation` /
   :mod:`repro.vm`): what fraction of sessions fire a REPORT response,
   which foreign key they observe, how often the experience is bad
   enough to tank the rating.
2. **Stream** synthetic per-device outcomes for the whole fleet in
   batches, sampling *reporting devices* directly with geometric
   skip-sampling -- cost is O(reports + batches), not O(devices), and
   no per-device object survives the batch that generated it.
3. **Drive** the real pipeline end to end: every sampled report is
   signed by an attestation-key pool (batch keys shared across devices,
   like real device attestation), delivered through a
   :class:`~repro.reporting.client.ReportClient` (retry/backoff against
   an optionally flaky transport), ingested by the sharded
   :class:`~repro.reporting.server.ReportServer`, and -- optionally --
   reflected into a :class:`~repro.userside.market.Market` listing via
   bulk download/rating updates.

Adversarial traffic (duplicates, replays, forged signatures) is
injected at configurable rates so a fleet run also demonstrates the
rejection paths.  The result records throughput, the peak bounded-state
size (the O(shards) memory claim), and the takedown verdict.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

from repro.crypto.rsa import RSAKeyPair
from repro.errors import ReportingError, TransportError
from repro.reporting.client import ReportClient
from repro.reporting.server import ReportServer, SubmitStatus, TakedownPolicy
from repro.reporting.verdicts import AggregatedVerdict
from repro.reporting.wire import SignedReport, parse_report_text


@dataclass(frozen=True)
class OutcomeModel:
    """Per-session outcome probabilities, calibrated or hand-set."""

    report_rate: float
    observed_key_hex: str
    bad_experience_rate: float
    bomb_pool: int = 8   # distinct bomb ids reports cite

    @classmethod
    def calibrate(
        cls,
        apk,
        sessions: int = 5,
        events: int = 350,
        seed: int = 0,
        engine=None,
    ) -> "OutcomeModel":
        """Run real interpreter sessions and measure the outcome rates.

        Sessions run on a :class:`repro.vm.sessions.SessionEngine` --
        the same engine an opt-in real-session fleet uses -- with the
        protocol (device draws, seeds, per-event budgets) this method
        has always used.  Pass ``engine`` to share one engine (and its
        compiled method bodies) between calibration and the fleet run.
        """
        from repro.vm.sessions import SessionEngine

        if engine is None:
            engine = SessionEngine(apk, seed=seed, events=events)
        reporting = bad = detected = 0
        observed = ""
        for outcome in engine.play(sessions, events=events):
            keys = [parse_report_text(text).get("key") for text in outcome.reports]
            keys = [key for key in keys if key]
            if keys:
                reporting += 1
                observed = observed or keys[0]
            if outcome.detections:
                detected += 1
            if outcome.bad_experience:
                bad += 1
        report_rate = reporting / sessions if sessions else 0.0
        if not observed and detected:
            # Sessions detected (the installed key mismatched) but no
            # REPORT-response bomb happened to fire in the sample.  A
            # REPORT payload reads android.pm.get_public_key -- the
            # installed certificate fingerprint -- so detection *is* an
            # observation of that key; treat detecting sessions as
            # eventual reporters.
            observed = engine.package.cert_fingerprint_hex
            report_rate = detected / sessions
        return cls(
            report_rate=report_rate,
            observed_key_hex=observed,
            bad_experience_rate=bad / sessions if sessions else 0.0,
        )


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run."""

    devices: int = 1_000_000
    batch_size: int = 50_000
    shards: int = 8
    seed: int = 0
    batch_seconds: float = 60.0       # fleet-clock time one batch spans
    attestation_pool: int = 4         # batch attestation keys (and clients)
    target_reports: Optional[int] = 25_000   # cap: sample the reporting
                                             # subpopulation down to this
    calibration_sessions: int = 5
    calibration_events: int = 350
    duplicate_rate: float = 0.0       # client double-sends
    forge_rate: float = 0.0           # pirate-forged envelopes
    replay_stale: bool = False        # resubmit a stale report each batch
    transport_failure_rate: float = 0.0
    stop_on_takedown: bool = False
    policy: TakedownPolicy = field(default_factory=TakedownPolicy)
    data_dir: Optional[str] = None    # WAL + snapshot directory (durable run)
    snapshot_every: int = 1024        # appends between snapshot compactions
    crash_after_batch: Optional[int] = None  # kill + recover after this batch
                                             # (requires data_dir)
    transport: str = "inproc"         # "inproc" | "tcp" (real loopback sockets)
    replica_dir: Optional[str] = None  # follow the leader's WAL here (tcp +
                                       # data_dir; enables failover)
    failover_after_batch: Optional[int] = None  # kill the leader here; the
                                                # supervisor promotes the
                                                # follower
    real_sessions: bool = False       # run a real interpreted play session
                                       # for every sampled reporter instead of
                                       # trusting the calibrated model (needs
                                       # a session_engine passed to run_fleet)


@dataclass
class FleetResult:
    """Everything a fleet run observed."""

    app_name: str
    devices: int
    batches: int
    reports_sent: int
    statuses: Dict[str, int]
    verdict: AggregatedVerdict
    offender_key: str
    takedown_clock: Optional[float]   # fleet-sim seconds at first TAKEDOWN
    average_rating: float
    wall_seconds: float
    peak_tracked_state: int
    spooled: int
    client_retries: int
    metrics: Dict[str, object]
    recoveries: int = 0               # mid-run kill-and-recover cycles
    wal_replayed: int = 0             # records replayed across recoveries
    failover_epoch: int = 0           # epoch after a supervised promotion

    @property
    def reports_per_second(self) -> float:
        return self.reports_sent / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def devices_per_second(self) -> float:
        return self.devices / self.wall_seconds if self.wall_seconds else 0.0

    def summary(self) -> str:
        lines = [
            f"fleet: {self.devices:,} devices in {self.batches} batches "
            f"({self.wall_seconds:.2f}s wall, "
            f"{self.devices_per_second:,.0f} devices/s)",
            f"reports: {self.reports_sent:,} sent "
            f"({self.reports_per_second:,.0f}/s); statuses: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.statuses.items())),
            f"verdict: {self.verdict.value}"
            + (f" against {self.offender_key[:16]}..." if self.offender_key else ""),
            f"peak tracked state: {self.peak_tracked_state} entries "
            f"(shard-bounded); rating: {self.average_rating:.1f}",
        ]
        if self.takedown_clock is not None:
            lines.append(f"takedown at fleet-clock {self.takedown_clock:.0f}s")
        if self.recoveries:
            lines.append(
                f"crash-recoveries: {self.recoveries} "
                f"({self.wal_replayed} WAL records replayed)"
            )
        if self.failover_epoch:
            lines.append(
                f"supervised failover: promoted at epoch {self.failover_epoch}"
            )
        return "\n".join(lines)


def _sample_indices(n: int, p: float, rng: random.Random) -> Iterator[int]:
    """Indices of successes among ``n`` Bernoulli(p) draws, O(successes).

    Geometric skip-sampling: gaps between successes follow a geometric
    law, so the loop touches only the devices that actually report.
    """
    if p <= 0.0 or n <= 0:
        return
    if p >= 1.0:
        yield from range(n)
        return
    log_q = math.log1p(-p)
    index = -1
    while True:
        gap = int(math.log(max(rng.random(), 1e-300)) / log_q)
        index += gap + 1
        if index >= n:
            return
        yield index


def run_fleet(
    app_name: str,
    original_key_hex: str,
    model: OutcomeModel,
    config: FleetConfig = FleetConfig(),
    server: Optional[ReportServer] = None,
    market=None,
    listing=None,
    session_engine=None,
) -> FleetResult:
    """Stream a whole fleet's play-session outcomes through the pipeline.

    Tracked state is O(config.shards): per-device work is a sampled
    report (signed, delivered, forgotten) or a bulk counter bump.
    Pass ``market``/``listing`` to close the ecosystem loop -- bulk
    downloads and ratings flow into the listing and a TAKEDOWN verdict
    pulls it.  With ``config.data_dir`` the server journals to a WAL;
    ``config.crash_after_batch`` kills it at that batch boundary and
    recovers from disk mid-run (the chaos crash-restart model at fleet
    scale).

    ``config.transport="tcp"`` serves the same server over a real
    loopback socket (:class:`~repro.reporting.net.ServiceHandle`) and
    gives every client a :class:`~repro.reporting.net.TcpTransport`;
    with ``replica_dir`` the run owns a
    :class:`~repro.reporting.net.cluster.Cluster` (leader + WAL-shipping
    follower), and ``failover_after_batch`` kills the leader service
    mid-run and lets the cluster's supervisor promote the follower --
    the networked analogue of ``crash_after_batch``.
    """
    if config.real_sessions and session_engine is None:
        raise ReportingError(
            "real_sessions requires a session_engine "
            "(repro.vm.sessions.SessionEngine over the suspect apk)"
        )
    tcp = config.transport == "tcp"
    if config.transport not in ("inproc", "tcp"):
        raise ReportingError(
            f"unknown fleet transport {config.transport!r} "
            "(expected 'inproc' or 'tcp')"
        )
    if config.crash_after_batch is not None and config.data_dir is None:
        raise ReportingError("crash_after_batch requires data_dir")
    if tcp and config.crash_after_batch is not None:
        raise ReportingError(
            "crash_after_batch is the in-process fault; over tcp use "
            "failover_after_batch"
        )
    if config.replica_dir is not None and not (tcp and config.data_dir):
        raise ReportingError("replica_dir requires transport='tcp' and data_dir")
    if config.failover_after_batch is not None and config.replica_dir is None:
        raise ReportingError(
            "failover_after_batch requires replica_dir (a follower to promote)"
        )
    owns_server = server is None
    if config.replica_dir is not None and not owns_server:
        raise ReportingError("replica_dir requires a fleet-owned server")
    server_config = dict(
        shards=config.shards, policy=config.policy,
        snapshot_every=config.snapshot_every,
    )

    cluster = None
    net_handle = None
    tcp_transports = []
    rng = random.Random(config.seed)
    keys = [
        RSAKeyPair.generate(seed=config.seed * 1000 + 17 + i)
        for i in range(max(1, config.attestation_pool))
    ]

    def on_server(fn):
        """Run ``fn(server)`` wherever the server lives right now --
        directly in-process, or on the service loop over tcp."""
        if net_handle is not None:
            return net_handle.call(fn)
        return fn(server)

    def make_transport(send):
        def transport(signed: SignedReport):
            if (
                config.transport_failure_rate
                and rng.random() < config.transport_failure_rate
            ):
                raise TransportError("fleet uplink unavailable")
            return send(signed)
        return transport

    try:
        if tcp:
            from repro.reporting.net import Cluster, ServiceHandle, TcpTransport
        if config.replica_dir is not None:
            cluster = Cluster(
                config.data_dir, config.replica_dir, server_config,
                {app_name: original_key_hex},
            )
            server = cluster.leader
            net_handle = cluster.handle
        else:
            if server is None:
                server = ReportServer(data_dir=config.data_dir, **server_config)
            if app_name not in server.apps:
                server.register_app(app_name, original_key_hex)
            if tcp:
                net_handle = ServiceHandle.start(server)

        if tcp:
            tcp_transports = [
                TcpTransport(cluster.endpoint if cluster else net_handle.address)
                for _ in keys
            ]
        senders = tcp_transports or [
            lambda signed: server.submit(signed)
        ] * len(keys)
        transports = [make_transport(send) for send in senders]

        clients = [
            ReportClient(
                transports[i],
                key,
                device_id=f"attestation-batch-{i}",
                seed=config.seed * 7919 + i,
            )
            for i, key in enumerate(keys)
        ]

        report_rate = model.report_rate
        if config.target_reports is not None and config.devices > 0:
            report_rate = min(report_rate, config.target_reports / config.devices)

        statuses: Dict[str, int] = {}
        reports_sent = 0
        peak_tracked = 0
        fleet_clock = 0.0
        takedown_clock: Optional[float] = None
        verdict, offender = AggregatedVerdict.CLEAN, ""
        rating_sum = 0
        rating_count = 0
        stale_report: Optional[SignedReport] = None
        batches = 0
        recoveries = 0
        wal_replayed = 0
        failover_epoch = 0
        started = time.monotonic()

        for batch_start in range(0, config.devices, config.batch_size):
            batches += 1
            batch = min(config.batch_size, config.devices - batch_start)
            brng = random.Random(config.seed * 1_000_003 + batches)

            # Ecosystem loop: the batch's users download first (rating-gated).
            if market is not None and listing is not None:
                active = market.download_batch(listing, batch, rng=brng)
            else:
                active = batch

            for offset in _sample_indices(active, report_rate, brng):
                device_index = batch_start + offset
                bomb_id = f"b{device_index % model.bomb_pool:03d}"
                observed_key_hex = model.observed_key_hex
                if config.real_sessions:
                    # Opt-in fidelity: actually interpret this device's play
                    # session instead of trusting the calibrated outcome.
                    # No report emitted by the real session means no report
                    # on the wire -- the synthetic sample overestimated.
                    outcome = session_engine.play_one(device_index)
                    if not outcome.reports:
                        statuses["session_no_report"] = (
                            statuses.get("session_no_report", 0) + 1
                        )
                        continue
                    parsed = parse_report_text(outcome.reports[0])
                    bomb_id = parsed.get("bomb") or bomb_id
                    observed_key_hex = parsed.get("key") or observed_key_hex
                client = clients[device_index % len(clients)]
                timestamp = fleet_clock + brng.random() * config.batch_seconds
                client.report(
                    app_name=app_name,
                    bomb_id=bomb_id,
                    observed_key_hex=observed_key_hex,
                    timestamp=timestamp,
                    device_id=f"dev-{device_index:09d}",
                )
                reports_sent += 1
                status = client.last_status
                name = status.value if isinstance(status, SubmitStatus) else "spooled"
                statuses[name] = statuses.get(name, 0) + 1
                signed = client.last_signed
                if stale_report is None:
                    stale_report = signed
                if config.duplicate_rate and brng.random() < config.duplicate_rate:
                    dup = on_server(lambda s: s.submit(signed))
                    statuses[dup.value] = statuses.get(dup.value, 0) + 1
                if config.forge_rate and brng.random() < config.forge_rate:
                    forged = replace(signed, signature=signed.signature ^ 1)
                    bad = on_server(lambda s: s.submit(forged))
                    statuses[bad.value] = statuses.get(bad.value, 0) + 1

            if (
                config.replay_stale
                and stale_report is not None
                and fleet_clock - stale_report.report.timestamp > server.max_report_age
            ):
                replayed = on_server(lambda s: s.submit(stale_report))
                statuses[replayed.value] = statuses.get(replayed.value, 0) + 1

            on_server(lambda s: s.process())
            for client in clients:
                if client.spooled:
                    client.flush()

            # Ratings: detections sour the reviews (bulk counters, no lists).
            bad_count = int(round(active * model.bad_experience_rate))
            good_count = active - bad_count
            rating_sum += bad_count * 1 + good_count * 5
            rating_count += active
            if market is not None and listing is not None:
                if bad_count:
                    market.rate_batch(listing, 1, bad_count)
                if good_count:
                    market.rate_batch(listing, 5, good_count)

            fleet_clock += config.batch_seconds
            tracked = on_server(lambda s: s.tracked_state_size())
            if tracked > peak_tracked:
                peak_tracked = tracked

            if batches == config.failover_after_batch:
                # The networked crash model: the leader *service* dies with
                # no drain.  The supervisor probes the dead endpoint and
                # promotes the follower's directory through the same
                # snapshot+replay path a local crash uses; the clients'
                # endpoint follows it.
                cluster.kill_leader()
                cluster.tick_until_promoted()
                server = cluster.supervisor.promoted_server
                net_handle = cluster.supervisor.promoted_handle
                failover_epoch = server.epoch
                recoveries += 1
                wal_replayed += on_server(
                    lambda s: s.metrics.counter("wal.replayed").value
                )

            if batches == config.crash_after_batch:
                # Kill-and-recover at the batch boundary: drop the server
                # with no clean shutdown and rebuild it from the WAL +
                # snapshot.  The transport closure picks up the rebound
                # ``server``; dedup windows and takedown state must survive.
                server.crash()
                server = ReportServer.recover(config.data_dir, **server_config)
                recoveries += 1
                wal_replayed += server.metrics.counter("wal.replayed").value
                server.process()

            verdict, offender = on_server(lambda s: s.verdict(app_name))
            if verdict is AggregatedVerdict.TAKEDOWN and takedown_clock is None:
                takedown_clock = fleet_clock
                if market is not None:
                    on_server(lambda s: market.process_server_takedowns(s))
                if config.stop_on_takedown:
                    break
    finally:
        if cluster is not None:
            cluster.shutdown()  # also closes the serving server's logs
        elif net_handle is not None:
            net_handle.stop()
        for tcp_transport in tcp_transports:
            tcp_transport.close()

    wall = time.monotonic() - started
    metrics = server.metrics
    metrics.counter("fleet.devices_simulated").inc(config.devices)
    metrics.counter("fleet.reports_sent").inc(reports_sent)
    metrics.gauge("fleet.peak_tracked_state").set(peak_tracked)
    if owns_server and config.data_dir is not None and cluster is None:
        server.close()

    return FleetResult(
        app_name=app_name,
        devices=config.devices,
        batches=batches,
        reports_sent=reports_sent,
        statuses=statuses,
        verdict=verdict,
        offender_key=offender,
        takedown_clock=takedown_clock,
        average_rating=rating_sum / rating_count if rating_count else 0.0,
        wall_seconds=wall,
        peak_tracked_state=peak_tracked,
        spooled=sum(client.spooled for client in clients),
        client_retries=sum(client.retries for client in clients),
        metrics=metrics.snapshot(),
        recoveries=recoveries,
        wal_replayed=wal_replayed,
        failover_epoch=failover_epoch,
    )
