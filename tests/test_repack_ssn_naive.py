"""Repackaging pipeline, SSN baseline, naive baseline."""

import pytest

from repro.core import SSNConfig, SSNProtector
from repro.core.naive import NaiveProtector
from repro.errors import VMError
from repro.fuzzing import DynodroidGenerator
from repro.repack import RepackOptions, inject_adware_class, repackage, resign_only
from repro.vm import DevicePopulation, Runtime
from repro.vm.events import Event, EventKind


class TestRepackaging:
    def test_repackaged_apk_verifies_under_new_key(self, protected_apk, attacker_key):
        pirated = repackage(protected_apk, attacker_key)
        pirated.verify()  # the attacker CAN produce a valid signature...

    def test_but_the_public_key_changed(self, protected_apk, attacker_key, developer_key):
        pirated = repackage(protected_apk, attacker_key)
        assert pirated.cert.fingerprint_hex() != protected_apk.cert.fingerprint_hex()
        assert pirated.cert.fingerprint_hex() == attacker_key.public.fingerprint().hex()

    def test_adware_injected(self, protected_apk, attacker_key):
        pirated = repackage(protected_apk, attacker_key)
        assert "AdService" in pirated.dex().classes

    def test_adware_phones_home(self, small_apk, attacker_key):
        pirated = repackage(small_apk, attacker_key)
        runtime = Runtime(pirated.dex(), package=pirated.install_view(), seed=1)
        for _ in range(60):
            runtime.session().dispatch(Event(EventKind.TICK, "AdService", (16,)))
        assert any("adware-exfil" in report for report in runtime.reports)

    def test_resign_only_keeps_content(self, small_apk, attacker_key):
        pirated = resign_only(small_apk, attacker_key)
        assert pirated.entry("classes.dex") == small_apk.entry("classes.dex")
        assert pirated.cert.fingerprint_hex() != small_apk.cert.fingerprint_hex()

    def test_options_rename_and_rebrand(self, small_apk, attacker_key):
        options = RepackOptions(rename_app="Totally Game", new_author="pirate")
        pirated = repackage(small_apk, attacker_key, options)
        resources = pirated.resources()
        assert resources.app_name == "Totally Game"
        assert resources.author == "pirate"

    def test_detection_fires_on_user_device(self, pirated_apk):
        """The core end-to-end claim: a repackaged app detects itself."""
        population = DevicePopulation(seed=17)
        detected = False
        for index in range(8):
            runtime = Runtime(
                pirated_apk.dex(),
                device=population.sample(),
                package=pirated_apk.install_view(),
                seed=index,
            )
            try:
                runtime.boot()
            except VMError:
                pass
            generator = DynodroidGenerator(pirated_apk.dex(), seed=index)
            for event in generator.stream(400):
                try:
                    runtime.session().dispatch(event)
                except VMError:
                    pass
            if runtime.detections:
                detected = True
                break
        assert detected


class TestSSN:
    @pytest.fixture(scope="class")
    def ssn(self, small_apk, developer_key):
        return SSNProtector(SSNConfig(seed=4, probability=0.05)).protect(
            small_apk, developer_key
        )

    def test_sites_inserted(self, ssn):
        _, report = ssn
        assert report.sites

    def test_obfuscated_name_is_reversed(self, ssn):
        _, report = ssn
        assert report.obfuscated_name == "android.pm.get_public_key"[::-1]

    def test_genuine_app_unharmed(self, ssn):
        apk, _ = ssn
        runtime = Runtime(apk.dex(), package=apk.install_view(), seed=9)
        generator = DynodroidGenerator(apk.dex(), seed=9)
        for event in generator.stream(400):
            runtime.session().dispatch(event)  # must never crash
        assert runtime.detections == []

    def test_repackaged_app_eventually_crashes(self, ssn, attacker_key):
        apk, _ = ssn
        pirated = resign_only(apk, attacker_key)
        runtime = Runtime(pirated.dex(), package=pirated.install_view(), seed=9)
        generator = DynodroidGenerator(pirated.dex(), seed=9)
        crashed = False
        for event in generator.stream(2000):
            try:
                runtime.session().dispatch(event)
            except VMError as exc:
                assert "SSN" in str(exc)
                crashed = True
                break
        assert crashed, "SSN's delayed response never fired"


class TestNaive:
    @pytest.fixture(scope="class")
    def naive(self, small_apk, developer_key):
        return NaiveProtector(seed=4).protect(small_apk, developer_key)

    def test_sites_inserted(self, naive):
        _, report = naive
        assert report.sites

    def test_genuine_app_unharmed(self, naive):
        apk, _ = naive
        runtime = Runtime(apk.dex(), package=apk.install_view(), seed=9)
        runtime.session().dispatch(Event(EventKind.TOUCH, "Game", (5, 5)))
        assert runtime.detections == []

    def test_repackaged_app_crashes_when_triggered(self, naive, attacker_key):
        apk, _ = naive
        pirated = resign_only(apk, attacker_key)
        runtime = Runtime(pirated.dex(), package=pirated.install_view(), seed=9)
        with pytest.raises(VMError, match="naive bomb"):
            # Touch x==5 satisfies the fixture's QC, whose body now
            # carries the cleartext detection.
            runtime.session().dispatch(Event(EventKind.TOUCH, "Game", (5, 5)))

    def test_detection_visible_in_cleartext(self, naive):
        from repro.dex.disassembler import disassemble

        apk, _ = naive
        assert "get_public_key" in disassemble(apk.dex())
