"""Networked ingestion: framing, service, replication, failover, fleet."""

import dataclasses
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.chaos.faults import FaultPlan, active_plan
from repro.crypto import RSAKeyPair
from repro.errors import ReportingError, TransportError, WireError
from repro.reporting import (
    AggregatedVerdict,
    DetectionReport,
    FleetConfig,
    OutcomeModel,
    ReportClient,
    ReportServer,
    SubmitStatus,
    TakedownPolicy,
    decode_report,
    encode_report,
    run_fleet,
    sign_report,
)
from repro.reporting.net import (
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
    ReplicaFollower,
    ServiceHandle,
    TcpTransport,
    decode_health,
    decode_redirect,
    decode_status,
    encode_health,
    encode_message,
    encode_redirect,
    encode_status,
    format_endpoint,
    parse_endpoint,
    probe_health,
    send_fence,
)

ORIGINAL = "aa" * 20
PIRATE = "bb" * 20
APP = "Game"


@pytest.fixture(scope="module")
def attest_key():
    return RSAKeyPair.generate(seed=4242)


def make_signed(attest_key, i, ts=10.0, key=PIRATE, app=APP):
    return sign_report(
        DetectionReport(
            app_name=app,
            bomb_id=f"b{i:03d}",
            device_id=f"dev-{i:04d}",
            observed_key_hex=key,
            timestamp=ts,
            nonce=1000 + i,
        ),
        attest_key,
    )


def make_server(**kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("policy", TakedownPolicy(distinct_devices=3))
    server = ReportServer(**kwargs)
    server.register_app(APP, ORIGINAL)
    return server


# ---------------------------------------------------------------------------
# FrameReader: incremental DRPT decoding == whole-blob decoding
# ---------------------------------------------------------------------------


class TestFrameReader:
    def frames(self, attest_key, n=3):
        return [encode_report(make_signed(attest_key, i)) for i in range(n)]

    def test_whole_stream_at_once(self, attest_key):
        frames = self.frames(attest_key)
        reader = FrameReader()
        out = reader.feed(b"".join(frames))
        assert out == frames
        assert reader.pending == 0
        assert reader.frames == 3

    def test_byte_at_a_time_equals_whole_blob(self, attest_key):
        frames = self.frames(attest_key)
        stream = b"".join(frames)
        reader = FrameReader()
        out = []
        for i in range(len(stream)):
            out.extend(reader.feed(stream[i : i + 1]))
        assert out == frames
        # And the decoded report sequence matches whole-blob decoding.
        incremental = [decode_report(blob).report for blob in out]
        whole = [decode_report(blob).report for blob in frames]
        assert incremental == whole

    def test_split_at_every_offset(self, attest_key):
        frames = self.frames(attest_key, n=2)
        stream = b"".join(frames)
        for split in range(len(stream) + 1):
            reader = FrameReader()
            out = reader.feed(stream[:split])
            out.extend(reader.feed(stream[split:]))
            assert out == frames, f"split at {split}"
            assert reader.pending == 0

    def test_seeded_random_chunking(self, attest_key):
        frames = [encode_report(make_signed(attest_key, i)) for i in range(20)]
        stream = b"".join(frames)
        rng = random.Random(99)
        reader = FrameReader()
        out = []
        offset = 0
        while offset < len(stream):
            step = rng.randint(1, 97)
            out.extend(reader.feed(stream[offset : offset + step]))
            offset += step
        assert out == frames

    def test_torn_final_frame_stays_pending(self, attest_key):
        frames = self.frames(attest_key, n=2)
        stream = b"".join(frames)
        reader = FrameReader()
        out = reader.feed(stream[:-5])
        assert out == frames[:1]
        assert reader.pending == len(frames[1]) - 5
        assert reader.feed(stream[-5:]) == frames[1:]

    def test_bad_magic_raises_even_on_first_byte(self):
        with pytest.raises(WireError, match="bad magic"):
            FrameReader().feed(b"X")
        with pytest.raises(WireError, match="bad magic"):
            FrameReader().feed(b"JUNKJUNKJUNK")

    def test_oversize_declared_length_raises(self):
        blob = b"DRPT" + struct.pack(">I", 1 << 30)
        with pytest.raises(WireError, match="exceeds"):
            FrameReader().feed(blob)

    def test_desync_mid_stream(self, attest_key):
        frame = encode_report(make_signed(attest_key, 1))
        reader = FrameReader()
        assert reader.feed(frame) == [frame]
        with pytest.raises(WireError):
            reader.feed(b"garbage after a clean frame")


class TestStatusCodec:
    def test_roundtrip_every_status(self):
        for status in SubmitStatus:
            wire = encode_status(status)
            assert len(wire) == 1
            assert decode_status(wire[0]) is status

    def test_unknown_byte_raises(self):
        with pytest.raises(WireError):
            decode_status(0x00)
        with pytest.raises(WireError):
            decode_status(0xEE)


class TestMessageReader:
    def test_roundtrip_and_torn_tail(self):
        messages = [
            (MSG_HELLO, b"\x04"),
            (MSG_SNAPSHOT, b"RSNP" + b"x" * 100),
            (MSG_RECORD, bytes([META_WAL]) + b"record-bytes"),
            (MSG_ACK, struct.pack(">Q", 17)),
        ]
        stream = b"".join(encode_message(k, p) for k, p in messages)
        reader = MessageReader()
        out = []
        for i in range(len(stream)):
            out.extend(reader.feed(stream[i : i + 1]))
        assert out == messages
        assert reader.pending == 0

    def test_unknown_kind_raises(self):
        with pytest.raises(WireError, match="desynchronized"):
            MessageReader().feed(b"Z\x00\x00\x00\x00")


# ---------------------------------------------------------------------------
# The service over loopback
# ---------------------------------------------------------------------------


class TestIngestService:
    def test_round_trip_statuses_and_verdict(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            transport = TcpTransport(handle.address)
            statuses = []
            for i in range(3):
                client = ReportClient(
                    transport, attest_key, device_id=f"dev-{i:04d}", seed=i
                )
                client.report(
                    app_name=APP, bomb_id="b000",
                    observed_key_hex=PIRATE, timestamp=10.0 + i,
                )
                statuses.append(client.last_status)
            assert statuses == [SubmitStatus.ACCEPTED] * 3

            # Same frame again: the duplicate path answers over the wire.
            dup = make_signed(attest_key, 7)
            assert transport(dup) is SubmitStatus.ACCEPTED
            assert transport(dup) is SubmitStatus.DUPLICATE
            forged = dataclasses.replace(dup, signature=dup.signature ^ 1)
            assert transport(forged) is SubmitStatus.BAD_SIGNATURE
            unknown = make_signed(attest_key, 8, app="Nope")
            assert transport(unknown) is SubmitStatus.UNKNOWN_APP
            transport.close()

            handle.call(lambda s: s.process())
            verdict, offender = handle.call(lambda s: s.verdict(APP))
            assert verdict is AggregatedVerdict.TAKEDOWN
            assert offender == PIRATE
        finally:
            handle.stop()

    def test_pipelined_frames_answer_in_order(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            transport = TcpTransport(handle.address)
            signed = [make_signed(attest_key, i) for i in range(10)]
            frames = [encode_report(s) for s in signed]
            # One sendall, ten frames: statuses come back frame-ordered,
            # so the duplicate of frame 0 (appended last) must be the
            # final status.
            statuses = transport.send_many(frames + [frames[0]])
            assert statuses[:10] == [SubmitStatus.ACCEPTED] * 10
            assert statuses[10] is SubmitStatus.DUPLICATE
            transport.close()
        finally:
            handle.stop()

    def test_malformed_frame_gets_malformed_status(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            # Hand-build a frame with empty key + signature: it slices
            # cleanly (framing is fine) but fails decode_report.
            body = b"\x00" * 10
            frame = (
                b"DRPT" + struct.pack(">I", len(body)) + body
                + struct.pack(">H", 0) + struct.pack(">H", 0)
            )
            transport = TcpTransport(handle.address)
            statuses = transport.send_many([frame])
            assert statuses == [SubmitStatus.MALFORMED]
            transport.close()
            assert handle.call(
                lambda s: s.metrics.counter("reporting.rejected_malformed").value
            ) == 1
        finally:
            handle.stop()

    def test_desynchronized_stream_closes_connection(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            sock = socket.create_connection(handle.address, timeout=5)
            sock.sendall(b"not a drpt frame at all")
            assert sock.recv(1) == b""  # server hung up on us
            sock.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if handle.call(
                    lambda s: s.metrics.counter("reporting.net.desync").value
                ):
                    break
                time.sleep(0.01)
            assert handle.service.metrics.counter("reporting.net.desync").value == 1
        finally:
            handle.stop()

    def test_deterministic_backpressure_drops(self, attest_key):
        # One shard, queue depth 1: every chunk of frames can admit only
        # one before the loop answers DROPPED for the rest -- the
        # enqueue-before-await ordering makes this exact, not racy.
        server = make_server(shards=1)
        handle = ServiceHandle.start(server, shard_queue_depth=1)
        try:
            frames = [encode_report(make_signed(attest_key, i)) for i in range(30)]
            transport = TcpTransport(handle.address)
            statuses = transport.send_many(frames)
            transport.close()
            accepted = sum(1 for s in statuses if s is SubmitStatus.ACCEPTED)
            dropped = sum(1 for s in statuses if s is SubmitStatus.DROPPED)
            assert accepted + dropped == 30
            assert accepted >= 1
            assert dropped >= 20
            metrics = handle.call(lambda s: s.metrics.snapshot())
            assert metrics["reporting.dropped_backpressure"] == dropped
            assert metrics["reporting.received"] == 30
            net_metrics = handle.service.metrics
            assert net_metrics.counter("reporting.net.dropped").value == dropped
            assert (
                net_metrics.counter("reporting.net.conn.000.dropped").value
                == dropped
            )
        finally:
            handle.stop()

    def test_ingest_latency_histogram_observed(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            transport = TcpTransport(handle.address)
            transport.send_many(
                [encode_report(make_signed(attest_key, i)) for i in range(5)]
            )
            transport.close()
            hist = handle.service.metrics.histogram("reporting.net.ingest_seconds")
            assert hist.count == 5
            assert hist.quantile(0.99) > 0
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# Replication + failover
# ---------------------------------------------------------------------------


class TestReplication:
    def test_wal_shipping_failover_and_exactly_once(self, attest_key, tmp_path):
        server = make_server(
            data_dir=str(tmp_path / "leader"), snapshot_every=4
        )
        handle = ServiceHandle.start(server, replication_port=0)
        follower = ReplicaFollower(
            str(tmp_path / "replica"),
            handle.replication_address,
            expect_shards=4,
        ).start()
        assert follower.wait_applied(1)  # bootstrap snapshot
        assert follower.shard_count == 4

        transport = TcpTransport(handle.address)
        pre_kill = []
        for i in range(6):
            signed = make_signed(attest_key, i)
            pre_kill.append(signed)
            assert transport(signed) is SubmitStatus.ACCEPTED
        transport.close()
        # 1 bootstrap + 3 records + 1 compaction snapshot + 3 records.
        assert follower.wait_applied(8)
        assert follower.snapshots >= 2

        # The leader dies abruptly -- no drain, no goodbye.
        handle.kill()
        server.crash()

        promoted = follower.promote(
            shards=4, policy=TakedownPolicy(distinct_devices=3)
        )
        try:
            promoted.process()
            verdict, offender = promoted.verdict(APP)
            assert verdict is AggregatedVerdict.TAKEDOWN
            assert offender == PIRATE
            # Exactly-once across failover: a report the dead leader
            # acked is a DUPLICATE on the promoted follower.
            assert promoted.submit(pre_kill[0]) is SubmitStatus.DUPLICATE
        finally:
            promoted.close()

    def test_leader_kill_ends_replica_handler_cleanly(self, attest_key, tmp_path):
        # abort() plus the loop's shutdown sweep cancel the replica
        # handler twice; a handler task that ends cancelled makes
        # asyncio report a CancelledError traceback through the loop's
        # exception handler.  The race is timing-dependent, so kill
        # several leaders mid-stream.
        signed = [make_signed(attest_key, i) for i in range(4)]
        reported = []
        for trial in range(5):
            server = make_server(data_dir=str(tmp_path / f"leader-{trial}"))
            handle = ServiceHandle.start(server, replication_port=0)
            handle._loop.set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            follower = ReplicaFollower(
                str(tmp_path / f"replica-{trial}"),
                handle.replication_address,
                expect_shards=4,
            ).start()
            try:
                assert follower.wait_applied(1)
                transport = TcpTransport(handle.address)
                for report in signed:
                    assert transport(report) is SubmitStatus.ACCEPTED
                transport.close()
            finally:
                handle.kill()
                follower.stop()
                server.crash()
        assert reported == []

    def test_follower_rejects_shard_mismatch(self, attest_key, tmp_path):
        server = make_server(data_dir=str(tmp_path / "leader"))
        handle = ServiceHandle.start(server, replication_port=0)
        try:
            follower = ReplicaFollower(
                str(tmp_path / "replica"),
                handle.replication_address,
                expect_shards=2,
            ).start()
            with pytest.raises(ReportingError, match="expected 2"):
                follower.wait_applied(1, timeout=5)
        finally:
            handle.stop()

    def test_replication_requires_durable_server(self):
        server = make_server()  # no data_dir
        with pytest.raises(ReportingError, match="durable"):
            ServiceHandle.start(server, replication_port=0)


# ---------------------------------------------------------------------------
# Chaos fault sites
# ---------------------------------------------------------------------------


class TestNetFaultSites:
    def test_partition_retried_through(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            transport = TcpTransport(handle.address)
            client = ReportClient(
                transport, attest_key, device_id="dev-0001", seed=3
            )
            plan = FaultPlan(seed=5).arm(
                "net.partition", "raise", probability=1.0, max_fires=2
            )
            with active_plan(plan):
                client.report(
                    app_name=APP, bomb_id="b000",
                    observed_key_hex=PIRATE, timestamp=10.0,
                )
            assert client.last_status is SubmitStatus.ACCEPTED
            assert client.retries == 2
            assert transport.partitions == 2
            transport.close()
        finally:
            handle.stop()

    def test_slow_link_injects_virtual_delay(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            transport = TcpTransport(handle.address)
            plan = FaultPlan(seed=5).arm(
                "net.slow_link", "latency", probability=1.0,
                max_fires=3, magnitude=3,
            )
            with active_plan(plan):
                for i in range(3):
                    transport(make_signed(attest_key, i))
            assert transport.delay_injected == 9.0
            transport.close()
        finally:
            handle.stop()

    def test_failover_fault_kills_the_service(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        transport = TcpTransport(handle.address)
        assert transport(make_signed(attest_key, 0)) is SubmitStatus.ACCEPTED
        # The plan is process-global, so the service loop thread sees it.
        plan = FaultPlan(seed=5).arm(
            "net.failover", "raise", probability=1.0, max_fires=1
        )
        with active_plan(plan):
            with pytest.raises(TransportError):
                transport(make_signed(attest_key, 1))
        assert plan.fires("net.failover") == 1
        assert (
            handle.service.metrics.counter("reporting.net.failover_faults").value
            == 1
        )
        transport.close()
        handle.kill()  # idempotent after abort


# ---------------------------------------------------------------------------
# Fleet over TCP
# ---------------------------------------------------------------------------

FLEET_MODEL = OutcomeModel(
    report_rate=1.0, observed_key_hex=PIRATE, bad_experience_rate=0.35
)
FLEET_BASE = FleetConfig(
    devices=3000, batch_size=1000, shards=4, seed=9,
    target_reports=120, attestation_pool=2,
)


class TestFleetTcp:
    def test_tcp_matches_inproc_verdict_and_statuses(self):
        inproc = run_fleet(APP, ORIGINAL, FLEET_MODEL, FLEET_BASE)
        tcp = run_fleet(
            APP, ORIGINAL, FLEET_MODEL,
            dataclasses.replace(FLEET_BASE, transport="tcp"),
        )
        assert tcp.statuses == inproc.statuses
        assert tcp.verdict is inproc.verdict
        assert tcp.offender_key == inproc.offender_key
        assert tcp.verdict is AggregatedVerdict.TAKEDOWN

    def test_mid_run_failover_converges(self, tmp_path):
        config = dataclasses.replace(
            FLEET_BASE, devices=4000, batch_size=500,
            transport="tcp",
            data_dir=str(tmp_path / "leader"),
            replica_dir=str(tmp_path / "replica"),
            failover_after_batch=3, snapshot_every=16,
        )
        baseline = run_fleet(
            APP, ORIGINAL, FLEET_MODEL,
            dataclasses.replace(FLEET_BASE, devices=4000, batch_size=500),
        )
        result = run_fleet(APP, ORIGINAL, FLEET_MODEL, config)
        assert result.recoveries == 1
        assert result.failover_epoch == 1
        assert result.verdict is baseline.verdict is AggregatedVerdict.TAKEDOWN
        assert result.offender_key == baseline.offender_key == PIRATE

    def test_failed_bootstrap_stops_every_thread(self, tmp_path, monkeypatch):
        """Regression: a raising run must not leak service/replica threads."""
        monkeypatch.setattr(
            ReplicaFollower, "wait_applied", lambda self, count, timeout=10.0: False
        )
        before = set(threading.enumerate())
        config = dataclasses.replace(
            FLEET_BASE, transport="tcp",
            data_dir=str(tmp_path / "leader"),
            replica_dir=str(tmp_path / "replica"),
        )
        with pytest.raises(ReportingError, match="never bootstrapped"):
            run_fleet(APP, ORIGINAL, FLEET_MODEL, config)
        leaked = [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-") and thread not in before
        ]
        assert leaked == []

    def test_config_validation(self, tmp_path):
        with pytest.raises(ReportingError, match="unknown fleet transport"):
            run_fleet(
                APP, ORIGINAL, FLEET_MODEL,
                dataclasses.replace(FLEET_BASE, transport="carrier-pigeon"),
            )
        with pytest.raises(ReportingError, match="failover_after_batch"):
            run_fleet(
                APP, ORIGINAL, FLEET_MODEL,
                dataclasses.replace(
                    FLEET_BASE, transport="tcp", failover_after_batch=1
                ),
            )
        with pytest.raises(ReportingError, match="replica_dir requires"):
            run_fleet(
                APP, ORIGINAL, FLEET_MODEL,
                dataclasses.replace(
                    FLEET_BASE, replica_dir=str(tmp_path / "r")
                ),
            )
        with pytest.raises(ReportingError, match="crash_after_batch"):
            run_fleet(
                APP, ORIGINAL, FLEET_MODEL,
                dataclasses.replace(
                    FLEET_BASE, transport="tcp",
                    data_dir=str(tmp_path / "d"), crash_after_batch=1,
                ),
            )


# ---------------------------------------------------------------------------
# CLI, end to end over real processes and signals
# ---------------------------------------------------------------------------


def _spawn(args, cwd):
    env = dict(os.environ)
    src = str((os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    env["PYTHONPATH"] = os.path.join(src, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(cwd),
    )


def _read_port(proc, label):
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.match(rf"{label} on [\d.]+:(\d+)", line.strip())
        if match:
            return int(match.group(1))
    proc.kill()
    raise AssertionError(f"never saw '{label} on host:port' from the CLI")


@pytest.mark.slow
class TestCliNet:
    def test_serve_listen_sigterm_clean_shutdown(self, attest_key, tmp_path):
        leader = _spawn(
            ["serve-reports", "--app", APP, "--key-hex", ORIGINAL,
             "--listen", "127.0.0.1:0", "--data-dir", "state"],
            cwd=tmp_path,
        )
        try:
            port = _read_port(leader, "listening")
            transport = TcpTransport(("127.0.0.1", port))
            for i in range(3):
                client = ReportClient(
                    transport, attest_key, device_id=f"dev-{i:04d}", seed=i
                )
                client.report(
                    app_name=APP, bomb_id="b000",
                    observed_key_hex=PIRATE, timestamp=10.0 + i,
                )
                assert client.last_status is SubmitStatus.ACCEPTED
            transport.close()
            leader.send_signal(signal.SIGTERM)
            out, _ = leader.communicate(timeout=30)
        finally:
            if leader.poll() is None:
                leader.kill()
        assert leader.returncode == 0, out
        assert "verdict for Game: takedown" in out
        assert "reporting.net.ingest_seconds" in out
        assert (tmp_path / "state" / "snapshot.bin").exists()

    def test_leader_replica_promote_on_leader_death(self, attest_key, tmp_path):
        leader = _spawn(
            ["serve-reports", "--app", APP, "--key-hex", ORIGINAL,
             "--listen", "127.0.0.1:0", "--replication-listen", "127.0.0.1:0",
             "--data-dir", "leader", "--snapshot-every", "4"],
            cwd=tmp_path,
        )
        replica = None
        try:
            ingest_port = _read_port(leader, "listening")
            repl_port = _read_port(leader, "replication")
            replica = _spawn(
                ["replica", "--data-dir", "replica",
                 "--leader", f"127.0.0.1:{repl_port}", "--promote"],
                cwd=tmp_path,
            )
            # Wait for the bootstrap snapshot to land in the replica's
            # directory: proof it connected before we kill the leader.
            deadline = time.monotonic() + 20
            while not (tmp_path / "replica" / "snapshot.bin").exists():
                assert time.monotonic() < deadline, "replica never bootstrapped"
                time.sleep(0.05)
            transport = TcpTransport(("127.0.0.1", ingest_port))
            for i in range(5):
                client = ReportClient(
                    transport, attest_key, device_id=f"dev-{i:04d}", seed=i
                )
                client.report(
                    app_name=APP, bomb_id="b000",
                    observed_key_hex=PIRATE, timestamp=10.0 + i,
                )
            transport.close()
            leader.send_signal(signal.SIGTERM)
            out, _ = leader.communicate(timeout=30)
            rout, _ = replica.communicate(timeout=30)
        finally:
            for proc in (leader, replica):
                if proc is not None and proc.poll() is None:
                    proc.kill()
        assert leader.returncode == 0, out
        assert replica.returncode == 0, rout
        assert "verdict for Game: takedown" in out
        # The follower held every shipped record at leader EOF and
        # promoted to the same verdict.
        assert "promoted:" in rout
        assert "verdict for Game: takedown" in rout


# ---------------------------------------------------------------------------
# The cluster control plane: health, redirects, heartbeats
# ---------------------------------------------------------------------------


class TestControlPlaneCodecs:
    def test_health_roundtrip(self):
        status = HealthStatus(
            epoch=7, role="leader", applied=123, wal_depth=45,
            queue_depth=6, dropped=2, endpoint="127.0.0.1:7788",
        )
        assert decode_health(encode_health(status)) == status

    def test_health_roundtrip_empty_endpoint_and_extremes(self):
        status = HealthStatus(
            epoch=2**64 - 1, role="fenced", applied=2**64 - 1,
            wal_depth=0, queue_depth=0, dropped=2**64 - 1, endpoint="",
        )
        assert decode_health(encode_health(status)) == status

    def test_health_truncated_raises(self):
        wire = encode_health(HealthStatus(epoch=1, role="follower"))
        for cut in range(len(wire)):
            with pytest.raises(WireError):
                decode_health(wire[:cut])

    def test_health_bad_role_byte_raises(self):
        wire = bytearray(encode_health(HealthStatus(epoch=1, role="leader")))
        wire[8] = 0x7F  # the role byte follows the 8-byte epoch
        with pytest.raises(WireError):
            decode_health(bytes(wire))

    def test_redirect_roundtrip(self):
        for endpoint in ("127.0.0.1:1", "10.0.0.9:65535", ""):
            epoch, decoded = decode_redirect(encode_redirect(3, endpoint))
            assert (epoch, decoded) == (3, endpoint)

    def test_redirect_truncated_raises(self):
        wire = encode_redirect(9, "127.0.0.1:7788")
        for cut in range(len(wire)):
            with pytest.raises(WireError):
                decode_redirect(wire[:cut])

    def test_parse_format_endpoint(self):
        assert parse_endpoint("127.0.0.1:7788") == ("127.0.0.1", 7788)
        assert format_endpoint(("127.0.0.1", 7788)) == "127.0.0.1:7788"
        with pytest.raises(WireError):
            parse_endpoint("no-port-here")
        with pytest.raises(WireError):
            parse_endpoint("host:notanint")

    def test_not_leader_status_byte_is_frozen(self):
        assert encode_status(SubmitStatus.NOT_LEADER) == b"\x08"
        assert decode_status(0x08) is SubmitStatus.NOT_LEADER


class TestMessageReaderWithHeartbeats:
    def heartbeat(self, epoch=1):
        return encode_health(
            HealthStatus(epoch=epoch, role="leader", applied=epoch * 10)
        )

    def test_heartbeat_interleaved_at_every_split_offset(self):
        messages = [
            (MSG_HELLO, b"\x04"),
            (MSG_HEARTBEAT, self.heartbeat(1)),
            (MSG_RECORD, bytes([META_WAL]) + b"record-bytes"),
            (MSG_HEARTBEAT, self.heartbeat(2)),
            (MSG_SNAPSHOT, b"RSNP" + b"x" * 64),
        ]
        stream = b"".join(encode_message(k, p) for k, p in messages)
        for split in range(len(stream) + 1):
            reader = MessageReader()
            out = reader.feed(stream[:split])
            out.extend(reader.feed(stream[split:]))
            assert out == messages, f"split at {split}"
            assert reader.pending == 0

    def test_heartbeats_decode_under_random_chunking(self):
        rng = random.Random(31)
        messages = [
            (MSG_HEARTBEAT, self.heartbeat(i)) for i in range(40)
        ]
        stream = b"".join(encode_message(k, p) for k, p in messages)
        reader = MessageReader()
        out = []
        offset = 0
        while offset < len(stream):
            step = rng.randint(1, 13)
            out.extend(reader.feed(stream[offset : offset + step]))
            offset += step
        assert out == messages
        decoded = [decode_health(payload) for _, payload in out]
        assert [h.epoch for h in decoded] == list(range(40))


class TestControlPlaneDispatch:
    """The ingest port speaks three protocols, selected by preamble."""

    def _drain_frames(self, sock, count):
        statuses = []
        while len(statuses) < count:
            byte = sock.recv(1)
            assert byte, "service closed mid-response"
            statuses.append(decode_status(byte[0]))
        return statuses

    def test_health_probe_byte_at_a_time(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.settimeout(10)
                for byte in HEALTH_MAGIC:
                    sock.sendall(bytes([byte]))
                    time.sleep(0.01)
                (length,) = struct.unpack(">H", _recv_exact(sock, 2))
                health = decode_health(_recv_exact(sock, length))
            assert health.role == "leader"
            assert health.epoch == 0
        finally:
            handle.stop()

    def test_probe_then_frames_on_separate_connections(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            health = probe_health(handle.address)
            assert health.role == "leader"
            transport = TcpTransport(handle.address)
            assert transport(make_signed(attest_key, 1)) is SubmitStatus.ACCEPTED
            transport.close()
            # Repeated probes keep answering on one connection.
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.settimeout(10)
                for _ in range(3):
                    sock.sendall(HEALTH_MAGIC)
                    (length,) = struct.unpack(">H", _recv_exact(sock, 2))
                    decode_health(_recv_exact(sock, length))
            assert handle.call(
                lambda s: int(
                    s.metrics.counter("reporting.net.health_probes").value
                )
            ) >= 4
        finally:
            handle.stop()

    def test_fence_byte_at_a_time_then_not_leader(self, attest_key):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            request = FENCE_MAGIC + encode_redirect(5, "127.0.0.1:9999")
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.settimeout(10)
                for i in range(len(request)):
                    sock.sendall(request[i : i + 1])
                assert _recv_exact(sock, 1) == b"\x01"
            # Fenced: a frame connection now answers NOT_LEADER + redirect
            # (the redirect target is dead, so delivery ultimately fails,
            # but the transport learned the epoch and followed it).
            transport = TcpTransport(handle.address)
            with pytest.raises(TransportError):
                transport(make_signed(attest_key, 2))
            assert transport.last_epoch == 5
            assert transport.redirects >= 1
            transport.close()
            assert handle.call(
                lambda s: int(s.metrics.counter("reporting.accepted").value)
            ) == 0
        finally:
            handle.stop()

    def test_stale_fence_refused(self):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            assert send_fence(handle.address, 4, "127.0.0.1:1111") is True
            # An older (or equal) epoch can never re-fence.
            assert send_fence(handle.address, 3, "127.0.0.1:2222") is False
            assert send_fence(handle.address, 4, "127.0.0.1:2222") is False
            assert send_fence(handle.address, 9, "127.0.0.1:3333") is True
        finally:
            handle.stop()

    def test_garbage_control_preamble_closes_connection(self):
        server = make_server()
        handle = ServiceHandle.start(server)
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.settimeout(10)
                sock.sendall(b"HLTHgarbage-after-a-probe")
                struct.unpack(">H", _recv_exact(sock, 2))
                # The trailing garbage desynchronizes the control stream;
                # the service closes rather than guessing.
                sock.recv(4096)  # health payload
                assert sock.recv(1) in (b"",)
        finally:
            handle.stop()


def _recv_exact(sock, count):
    chunks = bytearray()
    while len(chunks) < count:
        data = sock.recv(count - len(chunks))
        if not data:
            raise AssertionError("peer closed mid-response")
        chunks.extend(data)
    return bytes(chunks)
