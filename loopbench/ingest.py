"""``ingest``: the operator side -- signed reports into a replicated leader.

A set-up round signs a report stream and boots a cluster: a durable
``ReportServer`` (``snapshot_every=1024``, ``fsync=False`` as ``repro
serve-reports`` runs) behind ``ServiceHandle.start(replication_port=0)``
with one ``ReplicaFollower``.  Signing costs ~1 ms a report (pure
Python), so a stream cannot be long enough to fill a run; instead each
round replays its stream in passes, every pass on a freshly booted
cluster, until the round's share of the run is spent.

A pass sends the stream closed-loop at concurrency 1 over one
``TcpTransport`` (the way a ``ReportClient`` waits for each status) and
polls ``process()`` + ``verdicts()`` through ``ServiceHandle.call``
every ``POLL_EVERY`` sends.  At the end the follower catches up, the
leader is killed, and ``ReportServer.recover`` is timed on fresh copies
of the follower's directory.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import time
from typing import Dict, List, Optional, Tuple

from repro.crypto import RSAKeyPair
from repro.errors import ReproError
from repro.reporting import (
    AggregatedVerdict,
    DetectionReport,
    ReportServer,
    SubmitStatus,
    TakedownPolicy,
    sign_report,
)
from repro.reporting.net import ReplicaFollower, ServiceHandle, TcpTransport

from common import WAIT_S, Checks, Digest, HostSpeed, Stopwatch, derive_seed, median, should_stop

ROUNDS = 3
UNIQUE_REPORTS = 1500
DEVICES = 400
RESEND_SHARE = 0.10
FLIP_SHARE = 0.02
ORIGINAL_SHARE = 0.10
POLL_EVERY = 64
RECOVERS = 3
TRACE_PASSES = 2
#: App roles: many pirate reporters (takedown), a pirate seen by only
#: two devices (suspect), and original-key reports only (clean).
APP_WEIGHTS = (0.6, 0.2, 0.2)


@dataclasses.dataclass
class Stream:
    apps: List[Tuple[str, str, str]]          # (name, original fp, pirate fp)
    sends: List[Tuple[object, SubmitStatus]]  # (signed report, expected status)
    verdicts: Dict[str, Tuple[str, str]]      # the model's final verdicts
    accepted: int


def make_stream(seed: int, index: int, unique: int = UNIQUE_REPORTS) -> Stream:
    """Sign one round's stream and derive the model's expectations."""
    rng = random.Random(derive_seed(seed, "ingest", index))
    keys = [RSAKeyPair.generate(seed=derive_seed(seed, "attest", index, i)) for i in range(2)]
    apps = [
        (f"Ingest{a}", "%040x" % rng.getrandbits(160), "%040x" % rng.getrandbits(160))
        for a in range(len(APP_WEIGHTS))
    ]
    devices = [f"dev-{index}-{i:04d}" for i in range(DEVICES)]
    sends: List[Tuple[object, SubmitStatus]] = []
    seen = set()
    reporters: Dict[str, Dict[str, set]] = {name: {} for name, _, _ in apps}
    for i in range(unique):
        slot = rng.choices(range(len(apps)), weights=APP_WEIGHTS)[0]
        name, original, pirate = apps[slot]
        pirated = slot != 2 and rng.random() >= ORIGINAL_SHARE
        device = rng.choice(devices[:2] if slot == 1 and pirated else devices)
        nonce = rng.getrandbits(62)
        while (device, nonce) in seen:
            nonce = rng.getrandbits(62)
        seen.add((device, nonce))
        key = pirate if pirated else original
        signed = sign_report(
            DetectionReport(
                app_name=name,
                bomb_id=f"b{rng.randrange(16):02d}",
                device_id=device,
                observed_key_hex=key,
                timestamp=1000.0 + i * 0.01,
                nonce=nonce,
            ),
            keys[i % len(keys)],
        )
        sends.append((signed, SubmitStatus.ACCEPTED))
        if pirated:
            reporters[name].setdefault(key, set()).add(device)
        if rng.random() < RESEND_SHARE:
            sends.append((signed, SubmitStatus.DUPLICATE))
        if rng.random() < FLIP_SHARE:
            forged = dataclasses.replace(signed, signature=signed.signature ^ 1)
            sends.append((forged, SubmitStatus.BAD_SIGNATURE))
    verdicts = {}
    for name, by_key in reporters.items():
        if not by_key:
            verdicts[name] = (AggregatedVerdict.CLEAN.value, "")
            continue
        best = max(by_key, key=lambda k: (len(by_key[k]), k))
        verdict = (
            AggregatedVerdict.TAKEDOWN
            if len(by_key[best]) >= TakedownPolicy().distinct_devices
            else AggregatedVerdict.SUSPECT
        )
        verdicts[name] = (verdict.value, best)
    return Stream(apps, sends, verdicts, accepted=unique)


def _verdicts(server: ReportServer) -> Dict[str, Tuple[str, str]]:
    return {name: (v.value, key) for name, (v, key) in server.verdicts().items()}


def _poll(server: ReportServer):
    server.process()
    return (
        _verdicts(server),
        server.metrics.counter("wal.appends").value,
        server.metrics.counter("snapshot.compactions").value,
    )


def recovered_matches(recovered: ReportServer, verdicts, state: int) -> bool:
    """Exactly-once: a recovered copy holds the leader's verdicts and the
    same tracked state (every accepted report once, none twice)."""
    recovered.process()
    return _verdicts(recovered) == verdicts and recovered.tracked_state_size() == state


def _final(server: ReportServer):
    verdicts, appends, compactions = _poll(server)
    return (
        verdicts, appends, compactions,
        server.tracked_state_size(),
        server.metrics.counter("reporting.accepted").value,
    )


@dataclasses.dataclass
class PassResult:
    boot_s: float = 0.0
    send_s: float = 0.0
    #: CPU time of the process (client, server loop, follower) while sending.
    send_cpu: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)
    recovers: List[float] = dataclasses.field(default_factory=list)
    sends: int = 0
    failed: int = 0
    lag_max: int = 0
    catchup_s: float = 0.0
    #: HostSpeed scale of the pass (1 when not measured).
    scale: float = 1.0
    #: Wall time of the whole pass: boot, sends, recovery, teardown.
    wall_s: float = 0.0


class Ingest:
    def __init__(self, seed: int, checks: Checks, scratch: str) -> None:
        self.seed = seed
        self.checks = checks
        self.scratch = scratch
        self.passes = 0

    def run_pass(self, stream: Stream, digest: Digest) -> PassResult:
        expect = self.checks.expect
        result = PassResult()
        root = os.path.join(self.scratch, f"pass-{self.passes}")
        self.passes += 1
        replica_dir = os.path.join(root, "replica")
        handle: Optional[ServiceHandle] = None
        follower: Optional[ReplicaFollower] = None
        transport: Optional[TcpTransport] = None
        try:
            with Stopwatch() as boot:
                server = ReportServer(
                    data_dir=os.path.join(root, "leader"), snapshot_every=1024, fsync=False
                )
                for name, original, _ in stream.apps:
                    server.register_app(name, original)
                registered = server.metrics.counter("wal.appends").value
                handle = ServiceHandle.start(server, replication_port=0)
                follower = ReplicaFollower(
                    replica_dir, handle.replication_address,
                    expect_shards=server.shard_count, connect_timeout=WAIT_S,
                ).start()
                if not follower.wait_applied(1, timeout=WAIT_S):
                    raise ReproError("follower did not bootstrap in time")
                transport = TcpTransport(handle.address, timeout=WAIT_S)
            result.boot_s = boot.seconds

            def shipped(appends: int, compactions: int) -> int:
                # Updates the follower must apply to match the leader:
                # the bootstrap snapshot, every record journaled after
                # it, and one snapshot per compaction.
                return 1 + appends - registered + compactions

            clock = time.perf_counter
            start = clock()
            cpu_start = time.process_time()
            for count, (signed, want) in enumerate(stream.sends, 1):
                sent = clock()
                try:
                    status = transport(signed)
                except (ReproError, OSError) as exc:
                    result.failed += 1
                    expect(False, f"ingest: transport error {exc!r}")
                    continue
                result.latencies.append(clock() - sent)
                if status is not want:
                    result.failed += 1
                    expect(False, f"ingest: send {count} answered {status}, model {want}")
                digest.feed(status.value)
                if count % POLL_EVERY == 0:
                    verdicts, appends, compactions = handle.call(_poll, timeout=WAIT_S)
                    lag = shipped(appends, compactions) - follower.applied
                    result.lag_max = max(result.lag_max, lag)
                    digest.feed(sorted(verdicts.items()))
            verdicts, appends, compactions, state, accepted = handle.call(_final, timeout=WAIT_S)
            result.send_s = clock() - start
            result.send_cpu = time.process_time() - cpu_start
            result.sends = len(stream.sends)
            expect(verdicts == stream.verdicts, f"ingest: verdicts {verdicts} != model")
            expect(accepted == stream.accepted, f"ingest: leader accepted {accepted}")
            digest.feed(sorted(verdicts.items()), accepted)

            caught = clock()
            expect(
                follower.wait_applied(shipped(appends, compactions), timeout=WAIT_S),
                "ingest: follower did not catch up",
            )
            result.catchup_s = clock() - caught
            transport.close()
            handle.kill()
            follower.stop(timeout=WAIT_S)
            expect(not follower.error, f"ingest: follower failed: {follower.error}")
            for copy in range(RECOVERS):
                copy_dir = os.path.join(root, f"recovered-{copy}")
                shutil.copytree(replica_dir, copy_dir)
                with Stopwatch() as recover:
                    recovered = ReportServer.recover(copy_dir)
                result.recovers.append(recover.seconds)
                expect(
                    recovered_matches(recovered, verdicts, state),
                    "ingest: recovered state differs from the leader's (exactly-once)",
                )
                recovered.crash()
                shutil.rmtree(copy_dir, ignore_errors=True)
        finally:
            if transport is not None:
                transport.close()
            if handle is not None:
                handle.kill()
            if follower is not None:
                follower.stop(timeout=WAIT_S)
            shutil.rmtree(root, ignore_errors=True)
        return result

    def round(
        self, index: int, digest: Digest, done, speed: Optional[HostSpeed] = None
    ) -> Tuple[float, List[PassResult]]:
        """Sign a stream, then run passes until ``done(pass wall times)``,
        stepping ``speed`` after each (its first step brackets the
        signing too).  Returns (set-up seconds, pass results)."""
        with Stopwatch() as sign:
            stream = make_stream(self.seed, index)
        results: List[PassResult] = []
        while not results or not done([r.wall_s for r in results]):
            with Stopwatch() as unit:
                result = self.run_pass(stream, digest)
                if speed is not None:
                    result.scale = speed.step()
            result.wall_s = unit.seconds
            results.append(result)
        return (sign.seconds + results[0].boot_s) * results[0].scale, results

    def measure(self, seconds: float) -> Dict[str, float]:
        """Every pass replays an identical stream, so the per-pass figures
        are comparable; their medians shrug off a pass that ran while the
        host was busy."""
        setups: List[float] = []
        results: List[PassResult] = []
        digest = Digest()
        speed = HostSpeed()
        budget = seconds / ROUNDS
        for index in range(ROUNDS):
            setup, passes = self.round(
                index, digest, lambda spent: should_stop(sum(spent), spent, budget), speed
            )
            setups.append(setup)
            results.extend(passes)
        return {
            "setup_s": median(setups),
            "throughput_per_cpu_s": median([r.sends / r.send_cpu / r.scale for r in results]),
            "latency_p50_ms": median([median(r.latencies) * r.scale for r in results]) * 1e3,
            "attempted": sum(r.sends for r in results),
            "failed": sum(r.failed for r in results),
            "reference_rate": median(speed.rates),
        }

    def fixed(self) -> Tuple[str, Dict[str, float], int, int]:
        """Round 0 with TRACE_PASSES passes."""
        digest = Digest()
        _, results = self.round(0, digest, lambda spent: len(spent) == TRACE_PASSES)
        facts = {
            "net.replication.lag_max_records": max(r.lag_max for r in results),
            "net.replication.catchup_ms": median([r.catchup_s for r in results]) * 1e3,
            "durability.recover_ms": median([x for r in results for x in r.recovers]) * 1e3,
        }
        return (
            digest.hexdigest(), facts,
            sum(r.sends for r in results), sum(r.failed for r in results),
        )
