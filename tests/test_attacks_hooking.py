"""API-interception attack vs code-snippet scanning (Section 4.1)."""

import pytest

from repro.attacks import VTableHijackAttack
from repro.core import BombDroid, BombDroidConfig
from repro.core.config import DetectionMethod, ResponseKind


@pytest.fixture(scope="module")
def scan_heavy_protection(small_apk, developer_key):
    """Protect with every bomb using code scanning."""
    config = BombDroidConfig(
        seed=12,
        profiling_events=300,
        detection_methods=(DetectionMethod.CODE_SCAN,),
        responses=(ResponseKind.REPORT,),
    )
    return BombDroid(config).protect(small_apk, developer_key)


@pytest.fixture(scope="module")
def identity_only_protection(small_apk, developer_key):
    """Protect with only identity-based detection (pubkey + digest)."""
    config = BombDroidConfig(
        seed=12,
        profiling_events=300,
        detection_methods=(DetectionMethod.PUBLIC_KEY, DetectionMethod.CODE_DIGEST),
        responses=(ResponseKind.REPORT,),
    )
    return BombDroid(config).protect(small_apk, developer_key)


def test_identity_spoof_blinds_identity_bombs(identity_only_protection):
    protected, report = identity_only_protection
    result = VTableHijackAttack(seed=5, sessions=5, events=1000).run(protected, report)
    # With getPublicKey and the digests spoofed, identity bombs see a
    # genuine app: the attack wins against identity-only protection.
    assert result.details["identity_spoof_held"]
    assert result.defeated_defense


def test_code_scan_survives_identity_spoof(scan_heavy_protection):
    protected, report = scan_heavy_protection
    result = VTableHijackAttack(seed=5, sessions=5, events=1000).run(protected, report)
    assert result.details["code_scan_caught_it"], result.details
    assert not result.defeated_defense


def test_untampered_spoofed_run_is_clean(scan_heavy_protection):
    """Control: spoofing alone (no code edits) triggers nothing -- the
    scan bombs pin code, not identity."""
    from repro.errors import VMError
    from repro.fuzzing import DynodroidGenerator
    from repro.vm import Runtime

    protected, report = scan_heavy_protection
    runtime = Runtime(protected.dex(), package=protected.install_view(), seed=6)
    runtime.boot()
    for event in DynodroidGenerator(protected.dex(), seed=6).stream(500):
        try:
            runtime.session().dispatch(event)
        except VMError:
            pass
    assert not runtime.detections
