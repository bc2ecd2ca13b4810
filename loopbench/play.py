"""``play``: the device side -- protected and repackaged apps in use.

The app set is fixed: one app per corpus category, built, protected and
repackaged from constant seeds, two apps per set-up round (``setup_s``
is the median round).  Per-app bomb
layout swings session cost by 2x between build seeds, so apps drawn per
workload seed would make run-to-run figures measure the draw, not the
program.  The workload seed draws what varies in the field: the devices
(``DevicePopulation``), the UI event streams and the attestation keys.

Each session follows ``SessionEngine.play_one`` (device and runtime
seeded ``base * 100 + index``, boot with VM errors swallowed, a Dynodroid
stream where handlerless events are wasted and crashes do not end the
session) but dispatches through ``Runtime.session().dispatch`` itself so
that every UI event is timed.  Sessions alternate a genuine and a
pirated install on the same device and events; a cycle plays one such
pair on every app.  Pirated bomb reports go through
``ReportClient.report`` into an in-process ``ReportServer``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core import BombDroid, BombDroidConfig, ResponseKind
from repro.core.result import STAGES
from repro.corpus import build_app
from repro.crypto import RSAKeyPair
from repro.errors import MethodNotFound, VMError
from repro.fuzzing.generators import DynodroidGenerator
from repro.repack import repackage
from repro.reporting import AggregatedVerdict, ReportClient, ReportServer, SubmitStatus
from repro.reporting.wire import TEXT_PREFIX, parse_report_text
from repro.vm import DevicePopulation, Runtime, SessionEngine

from common import Checks, Digest, HostSpeed, Stopwatch, derive_seed, median, percentile, should_stop
from protect import CATEGORIES, PROFILING_EVENTS

APPS_PER_ROUND = 2
ROUNDS = len(CATEGORIES) // APPS_PER_ROUND
EVENTS = 350
APP_SCALE = 0.25
#: Constant seeds of the fixed app set.
APP_SEED = 4000
PROTECT_SEED = 4
ATTACKER_SEED = 6666
#: Every bomb answers a detection with a report: the report channel is
#: the detection loop's device side (with the default rotation only one
#: bomb in four reports, and a short run may send none at all).
RESPONSES = (ResponseKind.REPORT,)
#: Cycles in the traced run.
TRACE_CYCLES = 2
#: Session triples (genuine, original, pirated) per app in the fixed
#: reference population.
REFERENCE_PAIRS = 4
KINDS = ("genuine", "pirated")


@dataclass
class App:
    name: str
    developer_fp: str
    attacker_fp: str
    #: install kind -> (decoded dex, installed package)
    installs: Dict[str, tuple]
    timings: Dict[str, float]
    bombs: int
    session_base: int


@dataclass(frozen=True)
class Session:
    device: str
    events: int
    wasted: int
    crashes: int
    instructions: int
    cost: int
    reports: Tuple[str, ...]
    detections: Tuple[str, ...]
    fires: int


def play_session(install: tuple, session_seed: int, latencies: List[float]) -> Session:
    """One play session; appends each UI event's dispatch time."""
    dex, package = install
    device = DevicePopulation(seed=session_seed).sample()
    runtime = Runtime(dex, device=device, package=package, seed=session_seed)
    try:
        runtime.boot()
    except VMError:
        pass
    wasted = crashes = instructions = 0
    clock = time.perf_counter
    for event in DynodroidGenerator(dex, seed=session_seed).stream(EVENTS):
        ctx = runtime.session()
        start = clock()
        try:
            ctx.dispatch(event)
        except MethodNotFound:
            wasted += 1
        except VMError:
            crashes += 1
        latencies.append(clock() - start)
        instructions += ctx.consumed
    return Session(
        device=device.label,
        events=EVENTS,
        wasted=wasted,
        crashes=crashes,
        instructions=instructions,
        cost=runtime.cost_units,
        reports=tuple(runtime.reports),
        detections=tuple(runtime.detections),
        fires=runtime.bombs.count("outer_satisfied"),
    )


@dataclass
class Ledger:
    """What the timed sessions did (the reference model's inputs)."""

    sessions: int = 0
    failed: int = 0
    seconds: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    played: Dict[tuple, Session] = field(default_factory=dict)
    #: app -> devices whose pirate report the server accepted
    reporters: Dict[str, Set[str]] = field(default_factory=dict)


class Play:
    def __init__(self, seed: int, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks
        self.apps: List[App] = []
        self.setups: List[float] = []
        self.server: Optional[ReportServer] = None
        self.attestation: List[RSAKeyPair] = []
        self.attacker: Optional[RSAKeyPair] = None
        self.clock = 0.0

    # -- set-up -------------------------------------------------------------

    def setup_round(self, index: int) -> List[App]:
        """Build, protect (default gate) and repackage this round's apps."""
        with Stopwatch() as sw:
            if index == 0:
                self.server = ReportServer()
                self.attestation = [
                    RSAKeyPair.generate(seed=derive_seed(self.seed, "attest", i)) for i in range(2)
                ]
                self.attacker = RSAKeyPair.generate(seed=ATTACKER_SEED)
            config = BombDroidConfig(
                seed=PROTECT_SEED, profiling_events=PROFILING_EVENTS, responses=RESPONSES
            )
            apps = []
            for slot in range(index * APPS_PER_ROUND, (index + 1) * APPS_PER_ROUND):
                bundle = build_app(
                    f"Play{slot}", CATEGORIES[slot], seed=APP_SEED + slot, scale=APP_SCALE
                )
                result = BombDroid(config).protect(bundle.apk, bundle.developer_key)
                pirated = repackage(result.apk, self.attacker)
                apps.append(App(
                    name=bundle.resources.app_name,
                    developer_fp=result.apk.cert.fingerprint_hex(),
                    attacker_fp=pirated.cert.fingerprint_hex(),
                    installs={
                        kind: (apk.dex(), apk.install_view())
                        for kind, apk in (
                            ("original", bundle.apk),
                            ("genuine", result.apk),
                            ("pirated", pirated),
                        )
                    },
                    timings=dict(result.timings),
                    bombs=result.report.total_injected,
                    session_base=derive_seed(self.seed, "play", slot),
                ))
                self.server.register_app(apps[-1].name, apps[-1].developer_fp)
        self.setups.append(sw.seconds)
        self.apps.extend(apps)
        return apps

    # -- sessions -------------------------------------------------------------

    def session(self, ledger: Ledger, app: App, kind: str, index: int) -> None:
        """One timed session plus its reports; failures are counted."""
        session_seed = app.session_base * 100 + index
        self.clock += 1.0
        start = time.perf_counter()
        try:
            outcome = play_session(app.installs[kind], session_seed, ledger.latencies)
            ok = self.deliver(ledger, app, kind, index, outcome)
        except Exception as exc:  # noqa: BLE001 - any non-VM error fails the session
            ok = self.checks.expect(False, f"play: {app.name} {kind} #{index} raised {exc!r}")
            outcome = None
        ledger.seconds.append(time.perf_counter() - start)
        ledger.sessions += 1
        if not ok:
            ledger.failed += 1
        if outcome is not None:
            ledger.played[(app.name, kind, index)] = outcome

    def deliver(self, ledger: Ledger, app: App, kind: str, index: int, outcome: Session) -> bool:
        """Check one session against the model and send its reports.

        Genuine installs never detect or report.  Every bomb report of a
        pirated install parses, names the attacker's key, and is accepted."""
        expect = self.checks.expect
        where = f"play: {app.name} {kind} #{index}"
        if kind == "genuine":
            return expect(
                not outcome.detections and not outcome.reports,
                f"{where}: genuine install detected or reported",
            )
        ok = True
        client = None
        for text in outcome.reports:
            if not text.startswith("repackaged"):
                continue  # the repackager's injected adware also reports
            fields = parse_report_text(text)
            if not expect(
                text.startswith(TEXT_PREFIX)
                and fields.get("key") == app.attacker_fp
                and fields.get("app") == app.name
                and fields.get("bomb"),
                f"{where}: bad report {text!r}",
            ):
                ok = False
                continue
            if client is None:
                client = ReportClient(
                    self.server.submit,
                    self.attestation[index % len(self.attestation)],
                    outcome.device,
                    seed=app.session_base + index,
                )
            status = client.report(
                app_name=app.name,
                bomb_id=fields["bomb"],
                observed_key_hex=fields["key"],
                timestamp=self.clock,
            )
            if expect(status is SubmitStatus.ACCEPTED, f"{where}: report answered {status}"):
                ledger.reporters.setdefault(app.name, set()).add(outcome.device)
            else:
                ok = False
        return ok

    def check_protocol(self, ledger: Ledger, apps: List[App]) -> None:
        """The hand-driven loop must replay ``SessionEngine.play_one``."""
        for app in apps:
            mine = ledger.played.get((app.name, "genuine", 0))
            if mine is None:
                continue
            dex, package = app.installs["genuine"]
            ref = SessionEngine(dex=dex, package=package, seed=app.session_base).play_one(0)
            self.checks.expect(
                (ref.events, ref.wasted, ref.crashes, ref.instructions, ref.cost,
                 ref.reports, ref.detections)
                == (mine.events, mine.wasted, mine.crashes, mine.instructions, mine.cost,
                    mine.reports, mine.detections),
                f"play: {app.name} session differs from SessionEngine.play_one",
            )

    def check_verdicts(self, ledger: Ledger, digest: Digest) -> None:
        """Each app's verdict equals a count of distinct reporting devices
        against ``TakedownPolicy.distinct_devices``."""
        self.server.process()
        need = self.server.policy.distinct_devices
        for app in self.apps:
            devices = len(ledger.reporters.get(app.name, ()))
            if devices >= need:
                want = (AggregatedVerdict.TAKEDOWN, app.attacker_fp)
            elif devices:
                want = (AggregatedVerdict.SUSPECT, app.attacker_fp)
            else:
                want = (AggregatedVerdict.CLEAN, "")
            got = self.server.verdict(app.name)
            self.checks.expect(got == want, f"play: {app.name} verdict {got} != model {want}")
            digest.feed(app.name, got[0].value, got[1])

    # -- modes ----------------------------------------------------------------

    def setup(self) -> None:
        for index in range(ROUNDS):
            self.setup_round(index)

    def cycle(self, ledger: Ledger, index: int) -> None:
        """One session pair (genuine, pirated) on every app."""
        for app in self.apps:
            for kind in KINDS:
                self.session(ledger, app, kind, index)

    def measure(self, seconds: float) -> Dict[str, float]:
        """Cycles until ``seconds`` are spent; each cycle plays the same
        app mix, so per-cycle figures are comparable and their median
        shrugs off a cycle that ran while the host was busy."""
        speed = HostSpeed()
        setups = []
        for index in range(ROUNDS):
            self.setup_round(index)
            setups.append(self.setups[-1] * speed.step())
        ledger = Ledger()
        walls: List[float] = []
        rates: List[float] = []
        p50s: List[float] = []
        while not should_stop(sum(walls), walls, seconds):
            first_session, first_event = len(ledger.seconds), len(ledger.latencies)
            with Stopwatch() as unit:
                with Stopwatch() as sw:
                    self.cycle(ledger, len(walls))
                scale = speed.step()
            walls.append(unit.seconds)
            rates.append((len(ledger.seconds) - first_session) / sw.cpu / scale)
            p50s.append(percentile(ledger.latencies[first_event:], 50) * scale)
        self.check_protocol(ledger, self.apps)
        self.check_verdicts(ledger, Digest())
        return {
            "setup_s": median(setups),
            "throughput_per_cpu_s": median(rates),
            "latency_p50_ms": median(p50s) * 1e3,
            "attempted": ledger.sessions,
            "failed": ledger.failed,
            "reference_rate": median(speed.rates),
        }

    def fixed(self) -> Tuple[str, Dict[str, float], int, int]:
        """The set-up and TRACE_CYCLES cycles."""
        self.setup()
        ledger = Ledger()
        digest = Digest()
        for index in range(TRACE_CYCLES):
            self.cycle(ledger, index)
        self.check_protocol(ledger, self.apps)
        for key in sorted(ledger.played):
            digest.feed(key, ledger.played[key])
        self.check_verdicts(ledger, digest)
        played = list(ledger.played.values())
        facts = {f"core.{stage}_s": sum(a.timings.get(stage, 0.0) for a in self.apps) for stage in STAGES}
        facts.update({
            "core.bombs": sum(a.bombs for a in self.apps),
            "vm.events": sum(s.events for s in played),
            "vm.events_wasted": sum(s.wasted for s in played),
            "vm.events_crashed": sum(s.crashes for s in played),
            "vm.bomb_fires": sum(s.fires for s in played),
            "vm.detections": sum(len(s.detections) for s in played),
        })
        return digest.hexdigest(), facts, ledger.sessions, ledger.failed

    def reference(self) -> Dict[str, float]:
        """Table 5 cost overhead and the detected share on a fixed
        device/event population (seed-independent, so exact and
        comparable across runs); played untimed and untraced."""
        genuine = original = detected = 0
        pirated = 0
        scratch: List[float] = []
        for slot, app in enumerate(self.apps):
            base = derive_seed("play-reference", slot)
            for index in range(REFERENCE_PAIRS):
                session_seed = base * 100 + index
                mine = play_session(app.installs["genuine"], session_seed, scratch)
                self.checks.expect(
                    not mine.detections and not mine.reports,
                    f"play: {app.name} reference genuine session detected or reported",
                )
                genuine += mine.cost
                original += play_session(app.installs["original"], session_seed, scratch).cost
                pirated += 1
                detected += bool(play_session(app.installs["pirated"], session_seed, scratch).detections)
        self.checks.expect(detected > 0, "play: no reference pirated session detected")
        return {
            "vm.cost_overhead_pct": (genuine / original - 1.0) * 100.0,
            "vm.detected_ratio": detected / pirated,
        }
