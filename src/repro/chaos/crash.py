"""Kill-and-recover chaos: crash the durable report server mid-ingest.

The ``repro chaos --crash-restart`` driver.  Where :mod:`.harness`
stresses the *device* side (bomb containment, spool recovery), this
module stresses the *backend's* durability story: a
:class:`~repro.reporting.server.ReportServer` journaling to a WAL is
killed at a seeded offset into a deterministic report stream, recovered
from disk, and driven to completion.  The invariants are exactly-once
semantics across the crash:

* the recovered run's final verdicts equal an uninterrupted in-memory
  run over the same stream -- byte-identical offender key included;
* every report acked ``ACCEPTED`` before the crash answers
  ``DUPLICATE`` when resubmitted after recovery (dedup state survived);
* the union of accepted ``(device, nonce)`` pairs across the crash
  equals the uninterrupted run's set -- nothing lost, nothing doubled;
* a takedown happens exactly once per pirated stream even when the
  crash lands after the transition (the journal replays it, the counter
  does not re-fire);
* a torn final WAL record (a partial append from the dying process) is
  detected, counted in ``recovery.torn_records``, and discarded without
  touching any acked report.

Every trial is a pure function of ``(seed, scenario, crash_offset)``,
so :meth:`CrashRestartReport.digest` replays bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chaos.matrix import (
    ORIGINAL_KEY,
    PIRATE_KEY,
    POLICY,
    SHARDS,
    MatrixReport,
    ScenarioMatrix,
    send,
)
from repro.reporting.durability import wal_path
from repro.reporting.server import ReportServer, SubmitStatus
from repro.reporting.wire import SignedReport

#: The two stream flavours: genuine devices cite the developer's own
#: key (no takedown may ever fire); pirated devices cite a foreign key
#: (exactly one takedown must fire, crash or no crash).
CRASH_SCENARIOS = ("genuine", "pirated")

_APP = "CrashApp"
_PROCESS_EVERY = 7      # drain + verdict cadence during ingest


@dataclass
class CrashRestartConfig:
    """Shape of one kill-and-recover run."""

    seed: int = 11
    reports: int = 48
    #: Stream offsets to crash at; empty derives three spread across the
    #: stream (early / middle / late) from ``reports``.
    crash_offsets: Tuple[int, ...] = ()
    scenarios: Tuple[str, ...] = CRASH_SCENARIOS
    snapshot_every: int = 16     # appends between snapshot compactions
    #: Parent directory for per-trial data dirs (None = a temp dir that
    #: is removed afterwards).
    data_dir: Optional[str] = None

    def offsets(self) -> Tuple[int, ...]:
        if self.crash_offsets:
            return tuple(self.crash_offsets)
        n = self.reports
        return tuple(sorted({max(1, n // 5), n // 2, max(1, n - 3)}))


@dataclass
class CrashTrialRecord:
    """What one kill-and-recover trial did and found."""

    scenario: str
    crash_offset: int
    accepted_before: int
    accepted_after: int
    wal_replayed: int
    torn_records: int
    snapshot_loaded: bool
    takedowns: int
    verdict: str
    offender: str
    violations: Tuple[str, ...]


class CrashRestartReport(MatrixReport):
    """Everything a kill-and-recover run observed."""

    NAME = "crash-restart"

    def _body(self) -> List[str]:
        return [
            f"WAL records replayed: "
            f"{sum(r.wal_replayed for r in self.trials)}; torn tails "
            f"recovered: {sum(r.torn_records for r in self.trials)}; "
            f"snapshot restores: "
            f"{sum(1 for r in self.trials if r.snapshot_loaded)}",
        ]


class CrashRestartRunner(ScenarioMatrix):
    """Owns the deterministic streams; runs one trial at a time."""

    APP = _APP
    REPORT = CrashRestartReport
    TMP_PREFIX = "repro-crash-"

    def __init__(self, config: CrashRestartConfig) -> None:
        self.config = config
        self._streams: Dict[str, List[SignedReport]] = {}
        self._baselines: Dict[str, tuple] = {}

    # -- deterministic inputs ----------------------------------------------

    def stream(self, scenario: str) -> List[SignedReport]:
        """The fixed, pre-signed report stream for one scenario."""
        if scenario not in self._streams:
            self._streams[scenario] = self.signed_stream(
                f"{self.config.seed}:{scenario}",
                self.config.seed * 77 + 1,
                PIRATE_KEY if scenario == "pirated" else ORIGINAL_KEY,
            )
        return self._streams[scenario]

    def _make_server(self, data_dir: Optional[str] = None) -> ReportServer:
        server = ReportServer(
            shards=SHARDS, policy=POLICY,
            data_dir=data_dir, snapshot_every=self.config.snapshot_every,
        )
        if _APP not in server.apps:
            server.register_app(_APP, ORIGINAL_KEY)
        return server

    def _ingest(
        self,
        server: ReportServer,
        stream: Sequence[SignedReport],
        start: int,
        end: int,
        accepted: Set[Tuple[str, int]],
        violations: List[str],
        prefix: str,
    ) -> None:
        """Drive ``stream[start:end]`` with the fixed duplicate/process
        cadence, recording accepted ``(device, nonce)`` pairs."""
        for i in range(start, end):
            send(server.submit, stream, i, accepted, violations, prefix)
            if i % _PROCESS_EVERY == _PROCESS_EVERY - 1:
                server.process()
                server.verdict(_APP)
        server.process()

    def baseline(self, scenario: str) -> tuple:
        """Uninterrupted in-memory run: (verdict, offender, accepted)."""
        if scenario not in self._baselines:
            server = self._make_server()
            accepted: Set[Tuple[str, int]] = set()
            scratch: List[str] = []
            self._ingest(
                server, self.stream(scenario), 0, self.config.reports,
                accepted, scratch, "[baseline]",
            )
            verdict, offender = server.verdict(_APP)
            self._baselines[scenario] = (
                verdict, offender, frozenset(accepted), tuple(scratch),
            )
        return self._baselines[scenario]

    # -- one trial ----------------------------------------------------------

    def run_trial(
        self, scenario: str, crash_offset: int, data_dir: str
    ) -> CrashTrialRecord:
        config = self.config
        prefix = (
            f"[replay: --seed {config.seed}, {scenario}, "
            f"crash@{crash_offset}]"
        )
        violations: List[str] = []
        stream = self.stream(scenario)
        expected_verdict, expected_offender, expected_accepted, base_errs = (
            self.baseline(scenario)
        )
        violations.extend(base_errs)

        server = self._make_server(data_dir)
        accepted_before: Set[Tuple[str, int]] = set()
        self._ingest(
            server, stream, 0, crash_offset,
            accepted_before, violations, prefix,
        )
        takedowns_before = int(
            server.metrics.counter("reporting.takedowns").value
        )
        pre_crash = [
            s for s in stream[:crash_offset]
            if (s.report.device_id, s.report.nonce) in accepted_before
        ]

        # -- kill: no compaction, no flush; WAL appends were unbuffered.
        server.crash()
        # The dying process got partway through an (unacked) append: a
        # plausible length, a bogus crc, a fraction of the payload.
        with open(wal_path(data_dir, 0), "ab") as fh:
            fh.write(struct.pack(">II", 64, 0xDEADBEEF) + b"\x00" * 10)

        recovered = ReportServer.recover(
            data_dir, shards=SHARDS, policy=POLICY,
            snapshot_every=config.snapshot_every,
        )
        torn = int(recovered.metrics.counter("recovery.torn_records").value)
        if torn != 1:
            violations.append(
                f"{prefix} recovery counted {torn} torn records, expected 1"
            )
        wal_replayed = int(recovered.metrics.counter("wal.replayed").value)
        snapshot_loaded = (
            recovered.metrics.counter("snapshot.loads").value > 0
        )

        # Exactly-once across the crash: every pre-crash accepted report
        # must be a DUPLICATE now -- the dedup window survived the kill.
        recovered.process()
        for signed in pre_crash:
            status = recovered.submit(signed)
            if status is not SubmitStatus.DUPLICATE:
                violations.append(
                    f"{prefix} pre-crash accepted report "
                    f"(device={signed.report.device_id}) came back "
                    f"{status.value} after recovery, expected duplicate"
                )

        accepted_after: Set[Tuple[str, int]] = set()
        self._ingest(
            recovered, stream, crash_offset, config.reports,
            accepted_after, violations, prefix,
        )
        doubled = accepted_before & accepted_after
        if doubled:
            violations.append(
                f"{prefix} {len(doubled)} reports accepted on both sides "
                f"of the crash"
            )
        total_accepted = accepted_before | accepted_after
        if total_accepted != expected_accepted:
            lost = len(expected_accepted - total_accepted)
            extra = len(total_accepted - expected_accepted)
            violations.append(
                f"{prefix} accepted set diverged from uninterrupted run "
                f"({lost} lost, {extra} extra)"
            )

        verdict, offender = recovered.verdict(_APP)
        if (verdict, offender) != (expected_verdict, expected_offender):
            violations.append(
                f"{prefix} verdict {verdict.value}/{offender[:16]} differs "
                f"from uninterrupted run "
                f"{expected_verdict.value}/{expected_offender[:16]}"
            )
        takedowns = takedowns_before + int(
            recovered.metrics.counter("reporting.takedowns").value
        )
        expected_takedowns = 1 if scenario == "pirated" else 0
        if takedowns != expected_takedowns:
            violations.append(
                f"{prefix} {takedowns} takedowns across the crash, "
                f"expected exactly {expected_takedowns}"
            )
        recovered.close()

        return CrashTrialRecord(
            scenario=scenario,
            crash_offset=crash_offset,
            accepted_before=len(accepted_before),
            accepted_after=len(accepted_after),
            wal_replayed=wal_replayed,
            torn_records=torn,
            snapshot_loaded=snapshot_loaded,
            takedowns=takedowns,
            verdict=verdict.value,
            offender=offender,
            violations=tuple(violations),
        )


def run_crash_restart(config: CrashRestartConfig) -> CrashRestartReport:
    """Run the kill-and-recover matrix, return the report."""
    return CrashRestartRunner(config).run()
