"""Fuzzer models, sessions, and the synthetic corpus."""

import random

import pytest

from repro.analysis import find_qualified_conditions
from repro.corpus import (
    CATEGORY_PROFILES,
    NAMED_APPS,
    build_app,
    build_named_app,
    generate_corpus,
)
from repro.dex.serializer import serialize_dex
from repro.errors import VMError
from repro.fuzzing import (
    AndroidHookerGenerator,
    DynodroidGenerator,
    FuzzSession,
    GENERATORS,
    MonkeyGenerator,
    PumaGenerator,
)
from repro.vm import DevicePopulation, Runtime
from repro.vm.events import declared_events, handler_name_for
from repro.vm.interpreter import CoverageTracer

from tests.dynodroid_reference import ReferenceDynodroid


@pytest.fixture(scope="module")
def app():
    return build_app("FuzzMe", category="Game", seed=5, scale=0.15)


class TestGenerators:
    def test_registry_complete(self):
        assert set(GENERATORS) == {"monkey", "puma", "androidhooker", "dynodroid"}

    def test_deterministic_per_seed(self, app):
        a = MonkeyGenerator(app.dex, seed=3).stream(50)
        b = MonkeyGenerator(app.dex, seed=3).stream(50)
        assert a == b

    def test_different_seeds_differ(self, app):
        a = MonkeyGenerator(app.dex, seed=3).stream(50)
        b = MonkeyGenerator(app.dex, seed=4).stream(50)
        assert a != b

    @pytest.mark.parametrize("cls", [PumaGenerator, AndroidHookerGenerator, DynodroidGenerator])
    def test_model_aware_fuzzers_only_fire_declared(self, app, cls):
        declared = set(declared_events(app.dex))
        for event in cls(app.dex, seed=1).stream(200):
            assert (event.kind, event.target_class) in declared

    def test_monkey_wastes_events(self, app):
        """Monkey fires blindly; some events land on missing handlers."""
        declared = set(declared_events(app.dex))
        events = MonkeyGenerator(app.dex, seed=1).stream(300)
        wasted = sum(1 for e in events if (e.kind, e.target_class) not in declared)
        assert wasted > 0

    def test_dynodroid_harvests_app_strings(self, app):
        generator = DynodroidGenerator(app.dex, seed=1)
        assert generator._harvest_string_constants(app.dex)

    def test_dynodroid_coverage_feedback_shifts_weights(self, app):
        generator = DynodroidGenerator(app.dex, seed=1)
        iterator = generator.events()
        event = next(iterator)
        before = dict(generator._rewarded)
        generator.notify_coverage(event, 25)
        assert generator._rewarded != before


@pytest.fixture(scope="module")
def category_apps():
    return [
        build_app(f"Equiv{index}", category=profile.name, seed=index, scale=0.15)
        for index, profile in enumerate(CATEGORY_PROFILES)
    ]


class TestDynodroidIncrementalWeights:
    """The kept weight list draws exactly the events the per-event
    rebuild (tests/dynodroid_reference.py) draws."""

    def test_plain_streams_identical(self, category_apps):
        for bundle in category_apps:
            for seed in range(12):
                assert DynodroidGenerator(bundle.dex, seed=seed).stream(300) == (
                    ReferenceDynodroid(bundle.dex, seed=seed).stream(300)
                ), (bundle.name, seed)

    def test_feedback_driven_streams_identical(self, category_apps):
        # Coverage rewards fill the productive pool (exploit branch) and
        # reweight pairs; observed strings change the TEXT arguments.
        for bundle in category_apps:
            for seed in range(6):
                fast = DynodroidGenerator(bundle.dex, seed=seed)
                slow = ReferenceDynodroid(bundle.dex, seed=seed)
                feedback = random.Random(seed)
                fast_events, slow_events = fast.events(), slow.events()
                for step in range(400):
                    event = next(fast_events)
                    assert event == next(slow_events), (bundle.name, seed, step)
                    reward = feedback.choice((0, 0, 0, 1, 4, 25))
                    fast.notify_coverage(event, reward)
                    slow.notify_coverage(event, reward)
                    if feedback.random() < 0.05:
                        strings = [f"s{feedback.randrange(1000)}", "secret-token"]
                        fast.notify_observed_strings(strings)
                        slow.notify_observed_strings(strings)
                assert fast._productive  # the exploit branch was live
                assert fast._fired == slow._fired
                assert fast._rewarded == slow._rewarded


class TestSession:
    def test_session_tolerates_crashes(self, app):
        """Inject a crashing handler and confirm the harness restarts."""
        from repro.dex import assemble_method

        dex = app.dex
        crashy = assemble_method(
            'const r1, "bang"\nthrow r1',
            class_name=sorted(dex.classes)[0],
            name="on_back",
            params=0,
        )
        cls = dex.classes[sorted(dex.classes)[0]]
        cls.methods.pop("on_back", None)
        cls.add_method(crashy)

        session = FuzzSession(
            dex,
            MonkeyGenerator(dex, seed=2),
            DevicePopulation(seed=2).sample(),
            seed=2,
        )
        result = session.run_for(120.0)
        assert result.crashes > 0
        assert result.events_played > 100

    def test_coverage_reported(self, app):
        session = FuzzSession(
            app.dex,
            DynodroidGenerator(app.dex, seed=3),
            DevicePopulation(seed=3).sample(),
            seed=3,
        )
        result = session.run_for(60.0)
        assert 0.0 < result.coverage <= 1.0

    def test_coverage_ignores_bomb_payload_code(self, protected_apk):
        """Payload methods loaded at run time are traced, but coverage is
        a fraction of the app dex's own instructions."""
        dex = protected_apk.dex()
        own = {method.qualified_name for method in dex.iter_methods()}
        tracer = CoverageTracer()
        runtime = Runtime(
            dex, package=protected_apk.install_view(), seed=3, tracers=[tracer]
        )
        runtime.boot()
        for event in DynodroidGenerator(dex, seed=3).stream(300):
            try:
                runtime.dispatch(event)
            except VMError:
                pass
        app_pairs = {pair for pair in tracer.visited if pair[0] in own}
        assert len(app_pairs) < len(tracer.visited), "no payload ran"
        assert tracer.instruction_coverage_of(dex) == (
            len(app_pairs) / dex.instruction_count()
        )


class TestCorpusGenerator:
    def test_profiles_match_table1_rows(self):
        names = [profile.name for profile in CATEGORY_PROFILES]
        assert names == [
            "Game", "Science&Edu", "Sport&Health", "Writing",
            "Navigation", "Multimedia", "Security", "Development",
        ]
        assert sum(p.app_count for p in CATEGORY_PROFILES) == 963

    def test_named_apps_cover_table2(self):
        assert [spec.name for spec in NAMED_APPS] == [
            "AndroFish", "Angulo", "SWJournal", "Calendar",
            "BRouter", "Binaural Beat", "Hash Droid", "CatLog",
        ]

    def test_generation_deterministic(self):
        a = build_app("X", seed=9, scale=0.1)
        b = build_app("X", seed=9, scale=0.1)
        assert serialize_dex(a.dex) == serialize_dex(b.dex)

    def test_structural_targets_roughly_met(self):
        bundle = build_app("Y", category="Game", seed=2, scale=0.5)
        instructions = bundle.dex.instruction_count()
        assert 0.4 * 3043 * 0.5 <= instructions <= 2.0 * 3043 * 0.5
        qcs = sum(
            len(find_qualified_conditions(m)) for m in bundle.dex.iter_methods()
        )
        assert qcs >= 10

    def test_apps_have_env_reads(self):
        bundle = build_app("Z", category="Multimedia", seed=3, scale=0.2)
        from repro.dex.disassembler import disassemble

        assert "android.env.get" in disassemble(bundle.dex)

    def test_generated_apps_are_crash_free(self):
        bundle = build_app("W", category="Security", seed=4, scale=0.15)
        runtime = Runtime(bundle.dex, package=bundle.apk.install_view(), seed=1)
        runtime.boot()
        for event in DynodroidGenerator(bundle.dex, seed=1).stream(800):
            runtime.dispatch(event)  # any crash fails the test

    def test_androfish_has_figure3_fields(self):
        bundle = build_named_app("AndroFish")
        fish = bundle.dex.classes["Fish"]
        assert set(fish.fields) == {"dir", "width", "height", "speed", "posX", "posY"}

    def test_corpus_iterator(self):
        bundles = list(generate_corpus("Game", count=3, scale=0.1, seed=1))
        assert len(bundles) == 3
        assert len({b.apk.cert.fingerprint_hex() for b in bundles}) == 3

    def test_apk_signed_and_installable(self):
        bundle = build_app("V", seed=6, scale=0.1)
        bundle.apk.verify()
        view = bundle.apk.install_view()
        assert view.cert_fingerprint_hex == bundle.developer_key.public.fingerprint().hex()
