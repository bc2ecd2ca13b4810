"""The ``repro chaos`` driver: a seeded fault matrix over the pipeline.

One :func:`run_chaos` call builds an app, protects it, repackages it,
and then plays both builds under a rotating fault matrix, checking the
containment invariants after every trial:

``genuine``   the *transparency* scenario: the genuine protected app
              plays with faults armed on the bomb path (KDF, AES,
              deserialize, classload, payload budget).  The host's
              observable output must equal the unprotected run -- or
              differ only because a *woven* bomb's body was lost to a
              contained failure (``payload_error``/``payload_skipped``
              recorded); and a genuine app must never detect.
``pirated``   the *detection* scenario: the repackaged app plays with
              faults on report transport and the client spool.  Intact
              bombs must still detect (matching the fault-free
              baseline), the server must never double-count a
              (device, nonce), a resubmitted accepted report must come
              back DUPLICATE, and the spool must drain once the faults
              clear.
``hostile``   the *hostile framework* scenario: random framework
              syscall failures and clock skew.  Whatever breaks, only
              the library's own error taxonomy may escape the VM.

Every trial runs under one :class:`~repro.chaos.faults.FaultPlan`
derived from ``(seed, trial)``; the report's :meth:`ChaosReport.digest`
is a pure function of the seed, so re-running the same seed must
reproduce it bit for bit (``verify_replay``).
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import FaultPlan, active_plan
from repro.chaos.matrix import MatrixReport
from repro.core import BombDroid, BombDroidConfig
from repro.corpus import build_app
from repro.crypto import RSAKeyPair, sha1_hex
from repro.errors import ReproError, TransportError
from repro.fuzzing.generators import DynodroidGenerator
from repro.repack import repackage
from repro.reporting.client import ReportClient
from repro.reporting.server import ReportServer, SubmitStatus
from repro.vm.containment import ContainmentPolicy
from repro.vm.device import DevicePopulation
from repro.vm.runtime import Runtime

SCENARIOS = ("genuine", "pirated", "hostile")

_APP = "ChaosApp"
_CATEGORY = "Game"
_ALPHA = 0.3
_BREAKER_K = 3      # consecutive payload failures before quarantine

#: Fault sites on the bomb-firing path (transparency scenario), with the
#: injector mode each one gets.
_BOMB_PATH_FAULTS: Tuple[Tuple[str, str, int], ...] = (
    ("crypto.kdf.derive", "raise", 1),
    ("crypto.aes.decrypt", "flip", 3),
    ("crypto.aes.decrypt", "truncate", 1),
    ("dex.deserialize", "flip", 2),
    ("dex.deserialize", "truncate", 1),
    ("vm.classload", "raise", 1),
    ("vm.budget", "clamp", 40),
)


@dataclass
class ChaosConfig:
    """Shape of one chaos run."""

    seed: int = 7
    trials: int = 25
    scale: float = 0.4
    events: int = 600
    devices: int = 2            # distinct pirate devices rotated across trials
    strict: bool = False        # ContainmentPolicy.strict (debugging)
    profiling_events: int = 300
    mesh: bool = False          # protect with the bomb mesh armed


@dataclass
class TrialRecord:
    """What one trial did and found."""

    trial: int
    scenario: str
    armed: Tuple[str, ...]
    fault_fires: int
    fault_log: Tuple
    crashes: int
    errors: Tuple[str, ...]
    payload_errors: int
    quarantines: int
    detected: bool
    accepted: int
    degraded: bool
    violations: Tuple[str, ...]


@dataclass
class ChaosReport(MatrixReport):
    """Everything a chaos run observed."""

    NAME = "chaos"

    baseline_transparent: bool = True
    bombs_injected: int = 0

    def digest(self) -> str:
        """Replay fingerprint: identical seeds must produce identical
        digests (fault logs, event counts, verdicts -- everything)."""
        state = (
            self.seed,
            self.baseline_transparent,
            self.bombs_injected,
            tuple(astuple(record) for record in self.trials),
            tuple(self.violations),
        )
        return sha1_hex(repr(state).encode("utf-8"))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "digest": self.digest(),
            "baseline_transparent": self.baseline_transparent,
            "bombs_injected": self.bombs_injected,
            "violations": list(self.violations),
            "trials": [
                {
                    "trial": r.trial,
                    "scenario": r.scenario,
                    "armed": list(r.armed),
                    "fault_fires": r.fault_fires,
                    "crashes": r.crashes,
                    "payload_errors": r.payload_errors,
                    "quarantines": r.quarantines,
                    "detected": r.detected,
                    "accepted": r.accepted,
                    "degraded": r.degraded,
                    "violations": list(r.violations),
                }
                for r in self.trials
            ],
        }

    def _title(self) -> str:
        fires = sum(r.fault_fires for r in self.trials)
        return super()._title() + f", {fires} faults fired"

    def _body(self) -> List[str]:
        return [
            f"bombs injected: {self.bombs_injected}; baseline transparency: "
            + ("OK" if self.baseline_transparent else "VIOLATED"),
            f"contained payload errors: "
            f"{sum(r.payload_errors for r in self.trials)}; quarantines: "
            f"{sum(r.quarantines for r in self.trials)}; degraded trials: "
            f"{sum(1 for r in self.trials if r.degraded)}",
        ]


class _SessionResult:
    """Accumulated observables of one play session (across restarts)."""

    def __init__(self) -> None:
        self.logs: List[str] = []
        self.ui_effects: List[tuple] = []
        self.reports: List[str] = []
        self.errors: List[str] = []
        self.runtime: Optional[Runtime] = None

    def absorb(self, runtime: Runtime) -> None:
        self.logs.extend(runtime.logs)
        self.ui_effects.extend(runtime.ui_effects)
        self.reports.extend(runtime.reports)

    def snapshot(self) -> tuple:
        return (tuple(self.logs), tuple(self.ui_effects), tuple(self.reports))

    @property
    def bombs(self):
        return self.runtime.bombs


class ChaosRunner:
    """Owns the app corpus and baselines; runs one trial at a time."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        bundle = build_app(
            _APP, category=_CATEGORY, seed=config.seed, scale=config.scale
        )
        self.bundle = bundle
        protect_config = BombDroidConfig(
            seed=config.seed,
            profiling_events=config.profiling_events,
            alpha=_ALPHA,
            mesh=config.mesh,
        )
        self.protected, self.instrumentation = BombDroid(protect_config).protect(
            bundle.apk, bundle.developer_key
        )
        self.pirated = repackage(
            self.protected, RSAKeyPair.generate(seed=config.seed * 100 + 666)
        )
        self.original_key_hex = self.protected.cert.fingerprint_hex()
        self.woven_bombs = {
            bomb.bomb_id for bomb in self.instrumentation.bombs if bomb.woven
        }
        #: One fixed event script, generated from the original app (the
        #: handlers survive protection/repackaging), reused by every run
        #: so outputs are comparable.
        self.events = list(
            DynodroidGenerator(bundle.dex, seed=config.seed).stream(config.events)
        )
        self._unprotected_snapshot: Optional[tuple] = None
        self._pirated_baseline: Dict[int, bool] = {}

    # -- building blocks ----------------------------------------------------

    def _device(self, index: int):
        """A fresh device with the deterministic profile for ``index``."""
        return DevicePopulation(seed=self.config.seed * 31 + index).sample()

    def _policy(self) -> ContainmentPolicy:
        return ContainmentPolicy(
            max_consecutive_failures=_BREAKER_K,
            strict=self.config.strict,
        )

    def _play(self, apk, device, containment=None, client=None) -> _SessionResult:
        """Boot and drive the fixed event script; crashes restart the
        app (state resets, the bomb history and clock carry over)."""
        dex = apk.dex()
        package = apk.install_view()
        result = _SessionResult()

        def fresh(previous: Optional[Runtime]) -> Runtime:
            runtime = Runtime(
                dex, device=device, package=package, seed=self.config.seed,
                report_client=client, containment=containment,
            )
            if previous is not None:
                runtime.bombs.merge_from(previous.bombs)
            try:
                runtime.boot()
            except ReproError as exc:
                result.errors.append(type(exc).__name__)
            except Exception as exc:  # non-taxonomy: invariant material
                result.errors.append(f"NON_TAXONOMY:{type(exc).__name__}")
            return runtime

        runtime = fresh(None)
        for event in self.events:
            try:
                runtime.session().dispatch(event)
            except ReproError as exc:
                result.errors.append(type(exc).__name__)
                result.absorb(runtime)
                runtime = fresh(runtime)
            except Exception as exc:
                result.errors.append(f"NON_TAXONOMY:{type(exc).__name__}")
                result.absorb(runtime)
                runtime = fresh(runtime)
        result.absorb(runtime)
        result.runtime = runtime
        return result

    def unprotected_snapshot(self) -> tuple:
        if self._unprotected_snapshot is None:
            session = self._play(self.bundle.apk, self._device(0))
            self._unprotected_snapshot = session.snapshot()
        return self._unprotected_snapshot

    def baseline_transparent(self) -> bool:
        """Fault-free transparency: protected == unprotected output."""
        session = self._play(
            self.protected, self._device(0), containment=self._policy()
        )
        return (
            session.snapshot() == self.unprotected_snapshot()
            and not session.errors
            and not session.runtime.detections
        )

    def pirated_detects_baseline(self, device_index: int) -> bool:
        if device_index not in self._pirated_baseline:
            session, *_ = self._pirated_run(device_index, plan=None)
            self._pirated_baseline[device_index] = (
                session.bombs.count("detected") > 0
            )
        return self._pirated_baseline[device_index]

    # -- scenarios ----------------------------------------------------------

    def run_trial(self, trial: int) -> TrialRecord:
        scenario = SCENARIOS[trial % len(SCENARIOS)]
        plan = self._plan_for(trial, scenario)
        if scenario == "genuine":
            return self._trial_genuine(trial, plan)
        if scenario == "pirated":
            return self._trial_pirated(trial, plan)
        return self._trial_hostile(trial, plan)

    def _plan_for(self, trial: int, scenario: str) -> FaultPlan:
        rng = random.Random(f"{self.config.seed}:plan:{trial}")
        plan = FaultPlan(seed=self.config.seed * 1000 + trial)
        if scenario == "genuine":
            for site, mode, magnitude in rng.sample(
                list(_BOMB_PATH_FAULTS), k=rng.randint(1, 3)
            ):
                plan.arm(
                    site, mode,
                    probability=rng.choice((0.5, 0.8, 1.0)),
                    magnitude=magnitude,
                )
        elif scenario == "pirated":
            plan.arm(
                "report.transport", "raise",
                probability=rng.choice((0.5, 0.8, 1.0)),
                exc=TransportError,
            )
            plan.arm("client.spool", "flip", probability=0.5, magnitude=2)
        else:  # hostile framework
            plan.arm("vm.framework", "raise", probability=0.02)
            plan.arm("vm.clock", "latency", probability=0.3, magnitude=5)
        return plan

    def _trial_genuine(self, trial: int, plan: FaultPlan) -> TrialRecord:
        violations: List[str] = []
        with active_plan(plan):
            session = self._play(
                self.protected, self._device(0), containment=self._policy()
            )
        bombs = session.bombs
        payload_errors = bombs.count("payload_error")
        skipped = bombs.count("payload_skipped")
        quarantines = bombs.count("quarantined")
        degraded = session.snapshot() != self.unprotected_snapshot()

        prefix = self._prefix(trial, "genuine")
        non_taxonomy = [e for e in session.errors if e.startswith("NON_TAXONOMY")]
        if non_taxonomy:
            violations.append(
                f"{prefix} non-taxonomy error escaped the VM: {non_taxonomy}"
            )
        if self.config.strict:
            # Strict containment re-raises; crashes are the point.  Only
            # the taxonomy invariant applies.
            pass
        else:
            if session.errors:
                violations.append(
                    f"{prefix} host crashed under contained faults: "
                    f"{session.errors}"
                )
            if degraded:
                woven_failed = any(
                    bomb_id in self.woven_bombs
                    and (
                        kinds.get("payload_error") or kinds.get("payload_skipped")
                    )
                    for bomb_id, kinds in bombs.counts.items()
                )
                if not woven_failed:
                    violations.append(
                        f"{prefix} host output changed without a woven "
                        "bomb failure (transparency broken)"
                    )
        if session.runtime.detections:
            violations.append(f"{prefix} genuine app detected repackaging")
        if bombs.count("mesh_tripped"):
            violations.append(
                f"{prefix} mesh guard tripped on a genuine app (peers and "
                "pins are all intact; contained faults must not look like "
                "tampering)"
            )
        for bomb_id, kinds in bombs.counts.items():
            q = kinds.get("quarantined", 0)
            if q and kinds.get("payload_error", 0) < _BREAKER_K * q:
                violations.append(
                    f"{prefix} bomb {bomb_id} quarantined after fewer than "
                    f"{_BREAKER_K} consecutive failures"
                )
        return TrialRecord(
            trial=trial, scenario="genuine", armed=plan.armed_sites(),
            fault_fires=plan.fires(), fault_log=plan.log_signature(),
            crashes=len(session.errors), errors=tuple(session.errors),
            payload_errors=payload_errors + skipped, quarantines=quarantines,
            detected=bool(session.runtime.detections), accepted=0,
            degraded=degraded, violations=tuple(violations),
        )

    def _pirated_run(self, device_index: int, plan: Optional[FaultPlan]):
        """One pirated play session with a live report pipeline."""
        server = ReportServer(shards=2)
        server.register_app(self.bundle.name, self.original_key_hex)
        submissions: List[tuple] = []
        accepted_signed: List = []

        def transport(signed):
            status = server.submit(signed)
            submissions.append(
                (signed.report.device_id, signed.report.nonce, status)
            )
            if status is SubmitStatus.ACCEPTED:
                accepted_signed.append(signed)
            return status

        client = ReportClient(
            transport,
            RSAKeyPair.generate(seed=self.config.seed * 100 + device_index),
            device_id=f"chaos-dev-{device_index}",
            seed=self.config.seed * 100 + device_index,
        )
        device = self._device(1 + device_index)
        if plan is None:
            session = self._play(
                self.pirated, device, containment=self._policy(), client=client
            )
        else:
            with active_plan(plan):
                session = self._play(
                    self.pirated, device,
                    containment=self._policy(), client=client,
                )
                client.flush()  # exercise spool reads under fault
        return session, server, client, submissions, accepted_signed

    def _trial_pirated(self, trial: int, plan: FaultPlan) -> TrialRecord:
        violations: List[str] = []
        device_index = trial % self.config.devices
        session, server, client, submissions, accepted_signed = (
            self._pirated_run(device_index, plan)
        )
        prefix = self._prefix(trial, "pirated")

        detected = session.bombs.count("detected") > 0
        if self.pirated_detects_baseline(device_index) and not detected:
            violations.append(
                f"{prefix} intact bombs failed to detect under "
                "reporting-layer faults"
            )
        # The faults are gone now; the spool must drain completely.
        client.flush()
        if client.spooled:
            violations.append(
                f"{prefix} spool failed to recover: {client.spooled} stuck"
            )
        # No double counting: each (device, nonce) accepted at most once.
        accepted_pairs: Dict[tuple, int] = {}
        for device_id, nonce, status in submissions:
            if status is SubmitStatus.ACCEPTED:
                key = (device_id, nonce)
                accepted_pairs[key] = accepted_pairs.get(key, 0) + 1
        double = {k: n for k, n in accepted_pairs.items() if n > 1}
        if double:
            violations.append(f"{prefix} server double-counted: {double}")
        if accepted_signed:
            status = server.submit(accepted_signed[0])
            if status is not SubmitStatus.DUPLICATE:
                violations.append(
                    f"{prefix} resubmitted report came back {status.value}, "
                    "expected duplicate"
                )
        non_taxonomy = [e for e in session.errors if e.startswith("NON_TAXONOMY")]
        if non_taxonomy:
            violations.append(
                f"{prefix} non-taxonomy error escaped the VM: {non_taxonomy}"
            )
        return TrialRecord(
            trial=trial, scenario="pirated", armed=plan.armed_sites(),
            fault_fires=plan.fires(), fault_log=plan.log_signature(),
            crashes=len(session.errors), errors=tuple(session.errors),
            payload_errors=session.bombs.count("payload_error"),
            quarantines=session.bombs.count("quarantined"),
            detected=detected, accepted=len(accepted_pairs),
            degraded=False, violations=tuple(violations),
        )

    def _trial_hostile(self, trial: int, plan: FaultPlan) -> TrialRecord:
        violations: List[str] = []
        with active_plan(plan):
            session = self._play(
                self.protected, self._device(0), containment=self._policy()
            )
        prefix = self._prefix(trial, "hostile")
        non_taxonomy = [e for e in session.errors if e.startswith("NON_TAXONOMY")]
        if non_taxonomy:
            violations.append(
                f"{prefix} non-taxonomy error escaped the VM: {non_taxonomy}"
            )
        if session.runtime.detections:
            violations.append(f"{prefix} genuine app detected repackaging")
        if session.bombs.count("mesh_tripped"):
            violations.append(
                f"{prefix} mesh guard tripped on a genuine app under a "
                "hostile framework"
            )
        return TrialRecord(
            trial=trial, scenario="hostile", armed=plan.armed_sites(),
            fault_fires=plan.fires(), fault_log=plan.log_signature(),
            crashes=len(session.errors), errors=tuple(session.errors),
            payload_errors=session.bombs.count("payload_error"),
            quarantines=session.bombs.count("quarantined"),
            detected=bool(session.runtime.detections), accepted=0,
            degraded=False, violations=tuple(violations),
        )

    def _prefix(self, trial: int, scenario: str) -> str:
        return f"[replay: --seed {self.config.seed}, trial {trial}, {scenario}]"

    # -- the whole matrix ---------------------------------------------------

    def run(self) -> ChaosReport:
        report = ChaosReport(
            seed=self.config.seed,
            bombs_injected=len(self.instrumentation.bombs),
        )
        report.baseline_transparent = self.baseline_transparent()
        if not report.baseline_transparent:
            report.violations.append(
                f"[replay: --seed {self.config.seed}, baseline] protected "
                "app output differs from unprotected with no faults armed"
            )
        for trial in range(self.config.trials):
            record = self.run_trial(trial)
            report.trials.append(record)
            report.violations.extend(record.violations)
        return report


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Build the corpus, run the matrix, return the report."""
    return ChaosRunner(config).run()
