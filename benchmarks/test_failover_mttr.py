"""Failover MTTR bench: kill the leader, time the self-healing.

A :class:`Cluster` (durable leader + WAL-shipping follower) runs
under its threaded supervisor with a fast heartbeat.  The bench
SIGKILL-models the leader (``Cluster.kill_leader()``: service kill +
server crash, no drain), then measures:

* **detection** -- first missed heartbeat to the dead declaration
  (supervisor's own event record);
* **promotion** -- dead declaration to the promoted service accepting
  connections;
* **MTTR** -- the client-observed gap: kill instant to the first report
  accepted by the new leader, through a transport that only knows
  ``cluster.endpoint()``.

Convergence is gated too: every pre-kill report answers DUPLICATE on
the new leader, the post-failover verdict equals an uninterrupted
baseline's, and the epoch grew.  Results land in
``BENCH_failover.json`` for the CI artifact.  Ceilings are loose --
they catch order-of-magnitude regressions, not jitter.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.crypto import RSAKeyPair
from repro.errors import TransportError
from repro.reporting import (
    AggregatedVerdict,
    DetectionReport,
    ReportServer,
    SubmitStatus,
    TakedownPolicy,
    sign_report,
)
from repro.reporting.net import Cluster, TcpTransport

from conftest import SCALE, print_table

BENCH_OUT = "BENCH_failover.json"
REPORTS = max(12, int(40 * SCALE))
KILL_AT = REPORTS // 2

#: Loose ceilings (seconds).  With a 0.02s heartbeat and 3-miss
#: threshold, detection lands around 0.06s and promotion well under a
#: second on any machine; the gates only catch gross regressions.
MAX_DETECTION_SECONDS = 10.0
MAX_PROMOTION_SECONDS = 10.0
MAX_MTTR_SECONDS = 20.0

ORIGINAL = "aa" * 20
PIRATE = "bb" * 20
APP = "Game"


def _stream(count):
    attest = RSAKeyPair.generate(seed=61)
    return [
        sign_report(
            DetectionReport(
                app_name=APP,
                bomb_id=f"b{i % 8:03d}",
                device_id=f"dev-{i:05d}",
                observed_key_hex=PIRATE,
                timestamp=10.0 + i * 0.01,
                nonce=40_000 + i,
            ),
            attest,
        )
        for i in range(count)
    ]


def _baseline(stream):
    server = ReportServer(shards=4, policy=TakedownPolicy(distinct_devices=3))
    server.register_app(APP, ORIGINAL)
    for signed in stream:
        server.submit(signed)
    server.process()
    return server.verdict(APP)


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    stream = _stream(REPORTS)
    expected_verdict, expected_offender = _baseline(stream)
    state = tmp_path_factory.mktemp("failover-mttr")

    cluster = Cluster(
        str(state / "leader"),
        str(state / "replica"),
        dict(shards=4, policy=TakedownPolicy(distinct_devices=3)),
        {APP: ORIGINAL},
        heartbeat_interval=0.02,
    )
    supervisor = cluster.supervisor.start()

    # The client only ever asks the cluster where to write.
    transport = TcpTransport(cluster.endpoint)
    for signed in stream[:KILL_AT]:
        assert transport(signed) is SubmitStatus.ACCEPTED
    assert cluster.follower.wait_applied(1 + KILL_AT, timeout=20)

    killed_at = time.monotonic()
    cluster.kill_leader()
    transport.close()  # the dead connection dies with the leader

    # MTTR: retry the next report until the healed cluster accepts it.
    first_accepted = None
    deadline = killed_at + 60
    while first_accepted is None:
        assert time.monotonic() < deadline, "cluster never healed"
        try:
            if transport(stream[KILL_AT]) is SubmitStatus.ACCEPTED:
                first_accepted = time.monotonic()
        except TransportError:
            time.sleep(0.01)
    mttr = first_accepted - killed_at

    # Drain the remainder, then check convergence.
    for signed in stream[KILL_AT + 1:]:
        assert transport(signed) is SubmitStatus.ACCEPTED
    duplicates = sum(
        1 for signed in stream[:KILL_AT]
        if transport(signed) is SubmitStatus.DUPLICATE
    )
    transport.close()

    event = supervisor.event
    verdict, offender = supervisor.promoted_handle.call(
        lambda s: (s.process(), s.verdict(APP))[1]
    )
    epoch = supervisor.promoted_server.epoch
    cluster.shutdown()

    payload = {
        "reports": REPORTS,
        "kill_offset": KILL_AT,
        "heartbeat_interval_seconds": 0.02,
        "miss_threshold": supervisor.miss_threshold,
        "detection_seconds": round(event.detection_seconds, 4),
        "promotion_seconds": round(event.promotion_seconds, 4),
        "mttr_seconds": round(mttr, 4),
        "failovers": supervisor.failovers,
        "promoted_epoch": epoch,
        "follower_applied_at_promotion": event.follower_applied,
        "pre_kill_duplicates": duplicates,
        "verdict": verdict.name.lower(),
        "verdict_matches_baseline": (
            verdict is expected_verdict and offender == expected_offender
        ),
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=2)

    print_table(
        "failover MTTR",
        ["metric", "value"],
        [
            ["reports", REPORTS],
            ["detection", f"{event.detection_seconds * 1e3:.1f} ms"],
            ["promotion", f"{event.promotion_seconds * 1e3:.1f} ms"],
            ["MTTR (client)", f"{mttr * 1e3:.1f} ms"],
            ["promoted epoch", epoch],
            ["verdict", payload["verdict"]],
            ["matches baseline", payload["verdict_matches_baseline"]],
        ],
    )
    return {
        "payload": payload,
        "event": event,
        "mttr": mttr,
        "duplicates": duplicates,
        "verdict": verdict,
        "offender": offender,
        "expected": (expected_verdict, expected_offender),
        "failovers": supervisor.failovers,
        "epoch": epoch,
    }


def test_exactly_one_automatic_failover(measurements):
    assert measurements["failovers"] == 1
    assert measurements["epoch"] == 1


def test_detection_and_promotion_ceilings(measurements):
    event = measurements["event"]
    assert 0 <= event.detection_seconds <= MAX_DETECTION_SECONDS
    assert 0 <= event.promotion_seconds <= MAX_PROMOTION_SECONDS


def test_mttr_ceiling(measurements):
    assert 0 < measurements["mttr"] <= MAX_MTTR_SECONDS, (
        f"client-observed MTTR {measurements['mttr']:.2f}s above "
        f"{MAX_MTTR_SECONDS}s"
    )


def test_no_report_lost_or_doubled(measurements):
    assert measurements["duplicates"] == KILL_AT


def test_verdict_matches_uninterrupted_baseline(measurements):
    expected_verdict, expected_offender = measurements["expected"]
    assert measurements["verdict"] is expected_verdict is AggregatedVerdict.TAKEDOWN
    assert measurements["offender"] == expected_offender == PIRATE


def test_bench_artifact_written(measurements):
    with open(BENCH_OUT, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["reports"] == REPORTS
    assert payload["mttr_seconds"] > 0
    assert payload["verdict_matches_baseline"] is True
