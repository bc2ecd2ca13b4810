"""The BombDroid pipeline end to end on the small fixture app."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro.apk.package
from repro.core import BombDroid, BombDroidConfig
from repro.core.stats import BombOrigin
from repro.dex.disassembler import disassemble
from repro.errors import VMError
from repro.fuzzing import DynodroidGenerator, FuzzSession
from repro.vm import DevicePopulation, Runtime
from repro.vm.events import Event, EventKind


class TestReport:
    def test_bombs_were_injected(self, protection_report):
        assert protection_report.total_injected >= 3
        assert protection_report.count_by_origin(BombOrigin.EXISTING) >= 2
        assert protection_report.count_by_origin(BombOrigin.ARTIFICIAL) >= 1

    def test_existing_qcs_counted(self, protection_report):
        # The fixture app has 5 QCs; at least 3 live in candidate
        # (non-hot) methods under any profiling outcome.
        assert protection_report.existing_qcs_found >= 3

    def test_hot_methods_excluded_from_bomb_sites(self, protection_report):
        bomb_methods = {bomb.method for bomb in protection_report.bombs}
        assert not bomb_methods & set(protection_report.hot_methods)

    def test_every_real_bomb_has_detection_and_response(self, protection_report):
        for bomb in protection_report.real_bombs():
            assert bomb.detection is not None
            assert bomb.response is not None
            assert bomb.inner_probability <= 0.5

    def test_bomb_ids_unique(self, protection_report):
        ids = [bomb.bomb_id for bomb in protection_report.bombs]
        assert len(ids) == len(set(ids))

    def test_code_grew_but_app_size_modestly(self, protection_report):
        assert protection_report.instructions_after > protection_report.instructions_before
        assert protection_report.size_after > protection_report.size_before

    def test_summary_readable(self, protection_report):
        text = protection_report.summary()
        assert "bombs" in text and "existing" in text


class TestProtectedArtifact:
    def test_protected_apk_verifies(self, protected_apk):
        protected_apk.verify()

    def test_no_plaintext_key_in_code(self, protected_apk, developer_key):
        listing = disassemble(protected_apk.dex())
        assert developer_key.public.fingerprint().hex() not in listing

    def test_trigger_constants_removed(self, protected_apk, protection_report):
        listing = disassemble(protected_apk.dex())
        # The woven string trigger from the fixture app must be gone.
        woven_strings = [
            bomb.const_value
            for bomb in protection_report.bombs
            if isinstance(bomb.const_value, str) and bomb.woven
        ]
        for value in woven_strings:
            assert f'"{value}"' not in listing

    def test_stego_carrier_present(self, protected_apk):
        resources = protected_apk.resources()
        assert "app_tagline" in resources.strings

    def test_validates_structurally(self, protected_apk):
        protected_apk.dex().validate()


class TestRuntimeBehavior:
    def test_semantic_equivalence_under_events(self, small_apk, protected_apk):
        population = DevicePopulation(seed=4)
        device_a = population.sample()
        device_b = device_a.copy()
        runtime_a = Runtime(
            small_apk.dex(), device=device_a, package=small_apk.install_view(), seed=2
        )
        runtime_b = Runtime(
            protected_apk.dex(), device=device_b,
            package=protected_apk.install_view(), seed=2,
        )
        runtime_a.boot()
        runtime_b.boot()
        generator = DynodroidGenerator(small_apk.dex(), seed=3)
        for event in generator.stream(600):
            result_a = result_b = None
            try:
                result_a = runtime_a.session().dispatch(event).value
            except VMError as exc:
                result_a = f"crash:{type(exc).__name__}"
            try:
                result_b = runtime_b.session().dispatch(event).value
            except VMError as exc:
                result_b = f"crash:{type(exc).__name__}"
            assert result_a == result_b
        app_state = {
            key: value for key, value in runtime_a.statics.items()
        }
        protected_state = {
            key: value
            for key, value in runtime_b.statics.items()
            if not key.startswith("Bomb$")
        }
        assert app_state == protected_state

    def test_no_false_positives_on_genuine_app(self, protected_apk):
        """The Section 8.4 invariant: response code never runs on a
        non-repackaged app, across diverse devices."""
        population = DevicePopulation(seed=8)
        for index in range(6):
            session = FuzzSession(
                protected_apk.dex(),
                DynodroidGenerator(protected_apk.dex(), seed=index),
                population.sample(),
                package=protected_apk.install_view(),
                seed=index,
            )
            result = session.run_for(240.0)
            assert not result.bombs_detected
            assert not result.bombs_responded

    def test_bombs_actually_evaluate_at_runtime(self, protected_apk):
        runtime = Runtime(
            protected_apk.dex(), package=protected_apk.install_view(), seed=5
        )
        runtime.boot()
        generator = DynodroidGenerator(protected_apk.dex(), seed=6)
        for event in generator.stream(300):
            try:
                runtime.session().dispatch(event)
            except VMError:
                pass
        assert runtime.bombs.bombs_with("evaluated")


class TestConfigAblations:
    def test_single_trigger_config(self, small_apk, developer_key):
        config = BombDroidConfig(seed=5, profiling_events=200, double_trigger=False)
        report = BombDroid(config).protect(small_apk, developer_key).report
        assert all(bomb.inner_description == "" for bomb in report.real_bombs())

    def test_weaving_disabled(self, small_apk, developer_key):
        config = BombDroidConfig(seed=5, profiling_events=200, weave=False, bogus_ratio=0.0)
        report = BombDroid(config).protect(small_apk, developer_key).report
        assert all(not bomb.woven for bomb in report.bombs)

    def test_alpha_zero_means_no_artificial(self, small_apk, developer_key):
        config = BombDroidConfig(seed=5, profiling_events=200, alpha=0.0)
        report = BombDroid(config).protect(small_apk, developer_key).report
        # alpha=0 keeps at most the one guaranteed pick per the paper's
        # floor of one method; assert it is nearly none.
        assert report.count_by_origin(BombOrigin.ARTIFICIAL) <= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BombDroidConfig(alpha=1.5)
        with pytest.raises(ValueError):
            BombDroidConfig(inner_probability=(0.5, 0.1))
        with pytest.raises(ValueError):
            BombDroidConfig(detection_methods=())


class TestProtectDoesEachJobOnce:
    @pytest.mark.parametrize("strict", [False, True])
    def test_dex_is_decoded_once(self, small_apk, developer_key, monkeypatch, strict):
        # Profiling runs on protect's working copy of the dex; it does
        # not parse the input apk a second time.
        decode = repro.apk.package.deserialize_dex
        calls = []

        def counting(blob):
            calls.append(len(blob))
            return decode(blob)

        monkeypatch.setattr(repro.apk.package, "deserialize_dex", counting)
        config = BombDroidConfig(seed=5, profiling_events=200)
        BombDroid(config).protect(small_apk, developer_key, strict=strict)
        assert len(calls) == 1

    def test_output_does_not_depend_on_the_hash_seed(self):
        # Opcodes hash by identity, so sets of them iterate in address
        # order; no protect output may follow that order (or the string
        # hash seed).
        script = textwrap.dedent(
            """
            from repro.core import BombDroid, BombDroidConfig
            from repro.core.bombdroid import app_identity_digest
            from repro.corpus import build_app

            bundle = build_app("Seeded", category="Security", seed=3, scale=0.25)
            config = BombDroidConfig(seed=3, profiling_events=150)
            result = BombDroid(config).protect(
                bundle.apk, bundle.developer_key, strict=True
            )
            print(app_identity_digest(result.apk), result.report.total_injected)
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        seen = set()
        for seed in (0, 1):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            seen.add(out.stdout.strip())
        assert len(seen) == 1
