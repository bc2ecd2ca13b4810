"""Reporting pipeline throughput: a million devices in bounded memory.

The ROADMAP north star is "heavy traffic from millions of users".  This
smoke bench streams a synthetic fleet through the full signed-report
pipeline (sign -> client -> sharded server -> sliding-window verdict)
and asserts the two properties that make that scale workable:

* throughput -- devices/s and reports/s stay above conservative floors
  (an order of magnitude under what a laptop does, so CI noise does
  not flake the job);
* memory -- peak tracked state is bounded by the shard caps and does
  not grow with the device count.

Scale via ``REPRO_BENCH_SCALE`` like the other benches.
"""

from __future__ import annotations

import pytest

from repro.reporting import (
    AggregatedVerdict,
    FleetConfig,
    OutcomeModel,
    TakedownPolicy,
    run_fleet,
)

from conftest import SCALE

DEVICES = int(1_000_000 * SCALE)
TARGET_REPORTS = 5_000

#: Conservative floors -- a laptop does ~100x these.
MIN_DEVICES_PER_SECOND = 20_000
MIN_REPORTS_PER_SECOND = 200

MODEL = OutcomeModel(
    report_rate=1.0,           # capped by target_reports below
    observed_key_hex="bb" * 20,
    bad_experience_rate=0.35,
)


def _run(devices: int, seed: int = 9):
    config = FleetConfig(
        devices=devices,
        batch_size=max(1, devices // 16),
        shards=8,
        seed=seed,
        target_reports=TARGET_REPORTS,
    )
    return run_fleet("Game", "aa" * 20, MODEL, config)


@pytest.fixture(scope="module")
def fleet_result():
    return _run(DEVICES)


def test_million_device_fleet_completes(fleet_result):
    assert fleet_result.devices == DEVICES
    assert fleet_result.verdict is AggregatedVerdict.TAKEDOWN
    assert fleet_result.statuses.get("accepted", 0) > 100
    assert fleet_result.metrics["reporting.takedowns"] == 1


def test_throughput_floor(fleet_result):
    assert fleet_result.devices_per_second >= MIN_DEVICES_PER_SECOND, (
        f"{fleet_result.devices_per_second:,.0f} devices/s below floor"
    )
    assert fleet_result.reports_per_second >= MIN_REPORTS_PER_SECOND, (
        f"{fleet_result.reports_per_second:,.0f} reports/s below floor"
    )


def test_memory_is_o_shards_not_o_devices(fleet_result):
    policy = TakedownPolicy()
    per_shard_cap = 4096 + 4096 + policy.max_tracked_keys * (
        1 + policy.max_tracked_devices
    )
    assert fleet_result.peak_tracked_state <= 8 * per_shard_cap

    # 4x fewer devices, same report budget: peak state must be in the
    # same ballpark, not 4x smaller -- it tracks reports and shard caps,
    # never the device count.
    quarter = _run(max(1000, DEVICES // 4))
    assert fleet_result.peak_tracked_state <= quarter.peak_tracked_state * 1.5 + 64


def _timed_ingest(signed_reports, data_dir=None):
    import time

    from repro.reporting import ReportServer

    server = ReportServer(shards=8, data_dir=data_dir, snapshot_every=10**9)
    server.register_app("Game", "aa" * 20)
    started = time.perf_counter()
    for signed in signed_reports:
        server.submit(signed)
    server.process()
    elapsed = time.perf_counter() - started
    verdicts = server.verdicts()
    if data_dir is not None:
        server.crash()
    return elapsed, verdicts, server


def test_wal_ingest_overhead_under_2x(tmp_path):
    """Journaling every accepted report must cost < 2x in-memory ingest
    (RSA signature verification dominates the submit path)."""
    from repro.crypto import RSAKeyPair
    from repro.reporting import DetectionReport, sign_report

    attest = RSAKeyPair.generate(seed=9)
    count = max(300, int(1500 * SCALE))
    signed = [
        sign_report(
            DetectionReport(
                app_name="Game", bomb_id=f"b{i % 8}",
                device_id=f"dev-{i:06d}", observed_key_hex="bb" * 20,
                timestamp=float(i) / 10.0, nonce=10_000 + i,
            ),
            attest,
        )
        for i in range(count)
    ]

    # Warm-up pass so neither timed run pays first-touch costs.
    _timed_ingest(signed[: count // 10])
    memory_s, memory_verdicts, _ = _timed_ingest(signed)
    walled_s, walled_verdicts, walled = _timed_ingest(
        signed, data_dir=str(tmp_path / "state")
    )
    assert walled_verdicts == memory_verdicts
    # + the register record and the journaled takedown transition
    assert walled.metrics.counter("wal.appends").value == count + 2
    assert walled_s <= 2.0 * memory_s, (
        f"WAL ingest {walled_s:.3f}s vs in-memory {memory_s:.3f}s "
        f"({walled_s / memory_s:.2f}x, budget 2.00x)"
    )


def test_torn_final_record_recovers(tmp_path):
    """Acceptance gate: a torn final WAL record is detected exactly once
    and every acked report survives recovery."""
    import struct

    from repro.crypto import RSAKeyPair
    from repro.reporting import DetectionReport, ReportServer, sign_report
    from repro.reporting.durability import wal_path

    data_dir = str(tmp_path / "state")
    attest = RSAKeyPair.generate(seed=9)
    server = ReportServer(shards=8, data_dir=data_dir)
    server.register_app("Game", "aa" * 20)
    accepted = []
    for i in range(64):
        signed = sign_report(
            DetectionReport(
                app_name="Game", bomb_id="b0", device_id=f"dev-{i:04d}",
                observed_key_hex="bb" * 20, timestamp=float(i),
                nonce=50_000 + i,
            ),
            attest,
        )
        server.submit(signed)
        accepted.append(signed)
    server.process()
    expected = server.verdicts()
    server.crash()
    with open(wal_path(data_dir, 0), "ab") as handle:
        handle.write(struct.pack(">II", 64, 0xDEADBEEF) + b"\x00" * 10)

    recovered = ReportServer.recover(data_dir, shards=8)
    assert recovered.metrics.counter("recovery.torn_records").value == 1
    recovered.process()
    assert recovered.verdicts() == expected
    from repro.reporting import SubmitStatus

    assert all(
        recovered.submit(s) is SubmitStatus.DUPLICATE for s in accepted
    )
    recovered.close()
