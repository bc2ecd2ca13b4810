"""The session API: ExecutionContext, tracer unification, SessionEngine.

``Runtime.session(...)`` is the execution entry point; these tests pin
its contract -- measured results, budget accounting, tracer attach/
detach, policy override scoping -- plus the batched SessionEngine the
fleet calibration and opt-in real-session fleets share.
"""

from __future__ import annotations

import pytest

from repro.core.config import DetectionMethod, ResponseKind
from repro.core.payloads import DetectionSpec, PayloadSpec, build_payload_dex
from repro.dex import assemble
from repro.dex.serializer import serialize_dex
from repro.vm import Runtime
from repro.vm.containment import ContainmentPolicy
from repro.vm.interpreter import CompositeTracer, CountingTracer, Tracer
from repro.vm.sessions import ExecutionContext, SessionEngine, SessionResult

APP = """
.class A
.field total static 0
.method main 0
    const r0, 0
    sput r0, A.total
    return_void
.end
.method bump 1
    sget r1, A.total
    add r1, r1, r0
    sput r1, A.total
    return r1
.end
.method on_key 1
    invoke r1, A.bump, r0
    return_void
.end
"""


def _runtime(**kwargs):
    return Runtime(assemble(APP), seed=0, **kwargs)


class TestExecutionContext:
    def test_run_returns_session_result(self):
        runtime = _runtime()
        result = runtime.session().run(runtime.find_method("A.bump"), [5])
        assert isinstance(result, SessionResult)
        assert result.value == 5
        assert result.instructions == 4       # sget, add, sput, return
        assert result.cost == 4
        assert result.remaining == runtime.default_budget - 4
        assert result.trips == ()

    def test_consumed_accumulates_across_calls(self):
        runtime = _runtime()
        ctx = runtime.session(budget=100)
        first = ctx.invoke("A.bump", [1])
        second = ctx.invoke("A.bump", [2])
        assert first.instructions == second.instructions == 4
        assert ctx.consumed == 8
        assert ctx.remaining == 100 - 8
        assert second.remaining == ctx.remaining

    def test_session_tracers_attach_only_inside(self):
        runtime = _runtime()
        tracer = CountingTracer()
        ctx = runtime.session(tracers=[tracer])
        assert runtime.tracers == ()
        with ctx:
            assert runtime.tracers == (tracer,)
            ctx.invoke("A.bump", [1])
            with ctx:  # reentrant: attaches once
                assert runtime.tracers == (tracer,)
            assert runtime.tracers == (tracer,)
        assert runtime.tracers == ()
        assert tracer.instructions == 4

    def test_measured_call_attaches_transiently(self):
        runtime = _runtime()
        tracer = CountingTracer()
        runtime.session(tracers=[tracer]).invoke("A.bump", [1])
        assert runtime.tracers == ()
        assert tracer.instructions == 4

    def test_policy_override_swaps_and_restores(self):
        base = ContainmentPolicy(max_consecutive_failures=9)
        runtime = _runtime(containment=base)
        override = ContainmentPolicy(payload_budget=123)
        with runtime.session(policy=override):
            assert runtime.containment is override
            assert runtime.breaker.threshold == override.max_consecutive_failures
        assert runtime.containment is base
        assert runtime.breaker.threshold == 9

    def test_policy_none_override_differs_from_no_override(self):
        base = ContainmentPolicy()
        runtime = _runtime(containment=base)
        with runtime.session():  # no override
            assert runtime.containment is base
        with runtime.session(policy=None):  # explicit crash-through
            assert runtime.containment is None
        assert runtime.containment is base

    def test_boot_runs_mains(self):
        runtime = _runtime()
        runtime.statics["A.total"] = 77
        results = runtime.session().boot()
        assert [r.value for r in results] == [None]
        assert runtime.statics["A.total"] == 0

    def test_trips_capture_bomb_events(self):
        """A detonating payload's bomb-registry events come back on the
        SessionResult of the call that recorded them."""
        from repro.apk import Resources, build_apk
        from repro.crypto import RSAKeyPair

        dex = assemble(APP)
        apk = build_apk(
            dex, Resources(strings={"app_name": "A"}), RSAKeyPair.generate(seed=5)
        )
        runtime = Runtime(apk.dex(), package=apk.install_view(), seed=0)
        spec = PayloadSpec(
            bomb_id="t1", payload_class="Bomb$t1", slots=0, app_name="A",
            detection=DetectionSpec(
                method=DetectionMethod.PUBLIC_KEY, original_key_hex="77" * 20
            ),
            response=ResponseKind.REPORT,
        )
        method = runtime.load_blob_method(
            serialize_dex(build_payload_dex(spec)), spec.entry
        )
        result = runtime.session().run(method, [[None, None]])
        kinds = result.trip_kinds()
        assert "detected" in kinds and "responded" in kinds
        # A later, quiet call reports no trips.
        quiet = runtime.session().run(runtime.find_method("A.main"), [])
        assert quiet.trips == ()


class TestTracerUnification:
    def test_single_tracer_is_effective_directly(self):
        runtime = _runtime()
        tracer = CountingTracer()
        runtime.add_tracer(tracer)
        assert runtime.tracer is tracer
        assert runtime.tracers == (tracer,)

    def test_two_tracers_compose(self):
        runtime = _runtime()
        first, second = CountingTracer(), CountingTracer()
        runtime.add_tracer(first)
        runtime.add_tracer(second)
        assert isinstance(runtime.tracer, CompositeTracer)
        runtime.session().invoke("A.bump", [1])
        assert first.instructions == second.instructions == 4
        runtime.remove_tracer(first)
        assert runtime.tracer is second

    def test_composite_fans_out_in_order(self):
        order = []

        class Probe(Tracer):
            def __init__(self, tag):
                self.tag = tag

            def on_invoke(self, name, args):
                order.append((self.tag, name))

        composite = CompositeTracer([Probe("a"), Probe("b")])
        composite.on_invoke("X.y", [])
        assert order == [("a", "X.y"), ("b", "X.y")]

    def test_setter_replaces_registration_set(self):
        runtime = _runtime()
        first, second = CountingTracer(), CountingTracer()
        runtime.add_tracer(first)
        runtime.add_tracer(second)
        solo = CountingTracer()
        runtime.tracer = solo        # legacy save/swap/restore idiom
        assert runtime.tracers == (solo,)
        runtime.tracer = None
        assert runtime.tracers == ()
        assert runtime.tracer is None

    def test_ctor_accepts_tracers_kwarg(self):
        tracer = CountingTracer()
        runtime = _runtime(tracers=[tracer])
        runtime.session().invoke("A.bump", [3])
        assert tracer.instructions == 4


class TestSessionEngine:
    def test_play_one_deterministic(self, protected_apk):
        engine = SessionEngine(protected_apk, seed=3, events=60)
        assert engine.play_one(2) == engine.play_one(2)

    def test_play_matches_fresh_engine(self, protected_apk):
        first = SessionEngine(protected_apk, seed=1, events=50).play(2)
        second = SessionEngine(protected_apk, seed=1, events=50).play(2)
        assert first == second
        assert [o.index for o in first] == [0, 1]
        assert all(o.events == 50 for o in first)
        assert all(o.instructions > 0 for o in first)

    def test_genuine_app_never_detects(self, protected_apk):
        for outcome in SessionEngine(protected_apk, seed=2, events=80).play(2):
            assert outcome.detections == ()
            assert not outcome.reported
            assert outcome.bomb_counts  # bombs evaluated, none fired

    def test_pirated_app_eventually_reports(self, pirated_apk):
        outcomes = SessionEngine(pirated_apk, seed=0, events=350).play(5)
        assert any(o.detections or o.reported for o in outcomes)
        assert any(o.bad_experience for o in outcomes)

    def test_needs_apk_or_dex(self):
        with pytest.raises(ValueError, match="apk or a dex"):
            SessionEngine()

    def test_dex_only_engine(self):
        engine = SessionEngine(dex=assemble(APP), seed=0, events=30)
        outcome = engine.play_one(0)
        assert outcome.events == 30
        assert outcome.crashes == 0


class TestCalibrationEquivalence:
    def test_shared_engine_matches_default(self, pirated_apk):
        from repro.reporting import OutcomeModel

        direct = OutcomeModel.calibrate(pirated_apk, sessions=3, events=250, seed=0)
        shared = SessionEngine(pirated_apk, seed=0, events=250)
        via_engine = OutcomeModel.calibrate(
            pirated_apk, sessions=3, events=250, seed=0, engine=shared
        )
        assert via_engine == direct


class TestRealSessionFleet:
    def test_real_session_fleet_smoke(self, pirated_apk, attacker_key):
        """Opt-in real sessions: every sampled reporter plays a real
        interpreted session; reports come from actual bomb responses."""
        from repro.reporting import FleetConfig, OutcomeModel, run_fleet

        model = OutcomeModel(
            report_rate=0.05,
            observed_key_hex=attacker_key.public.fingerprint().hex(),
            bad_experience_rate=0.2,
        )
        engine = SessionEngine(pirated_apk, seed=0, events=350)
        config = FleetConfig(
            devices=200, batch_size=100, shards=2, seed=1,
            target_reports=6,
        )
        result = run_fleet(
            "Game", "aa" * 20, model, config, session_engine=engine
        )
        handled = result.statuses.get("accepted", 0) + result.statuses.get(
            "session_no_report", 0
        )
        assert handled > 0
        assert result.reports_sent == result.statuses.get("accepted", 0)
