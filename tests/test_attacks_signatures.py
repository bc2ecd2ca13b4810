"""Attack-side signature library (repro.attacks.signatures)."""

import pytest

from repro.attacks.signatures import (
    CLASSIC_SIGNATURE,
    EXTENDED_SIGNATURE,
    SUSPICIOUS_PATTERNS,
    count_live_anchors,
    find_ciphertext_anchors,
    find_trigger_sites,
    strip_learned,
    strip_with_signature,
)
from repro.core import BombDroid, BombDroidConfig
from repro.core.config import DetectionMethod, ResponseKind


def meshed_apk(small_apk, developer_key, seed=4):
    config = BombDroidConfig(
        seed=seed,
        profiling_events=400,
        mesh=True,
        detection_methods=(
            DetectionMethod.PUBLIC_KEY,
            DetectionMethod.CODE_DIGEST,
            DetectionMethod.CODE_SCAN,
        ),
        responses=(
            ResponseKind.CRASH,
            ResponseKind.WARN,
            ResponseKind.REPORT,
            ResponseKind.SLOWDOWN,
        ),
    )
    return BombDroid(config).protect(small_apk, developer_key)


class TestClassicSignature:
    def test_patterns_reexported_for_text_search(self):
        from repro.attacks.text_search import (
            SUSPICIOUS_PATTERNS as TEXT_PATTERNS,
        )

        assert TEXT_PATTERNS is SUSPICIOUS_PATTERNS

    def test_strips_every_unmeshed_bomb(self, protected_apk, protection_report):
        dex = protected_apk.dex()
        sites = find_trigger_sites(dex, CLASSIC_SIGNATURE)
        # Bogus bombs carry the same prologue, so they are found too.
        assert len(sites) == len(protection_report.bombs)
        patched = strip_with_signature(dex, CLASSIC_SIGNATURE)
        assert patched == len(sites)
        # Nothing is left armed: every prologue branch went unconditional.
        assert count_live_anchors(dex) == 0

    def test_anchors_match_bomb_count(self, protected_apk, protection_report):
        dex = protected_apk.dex()
        anchors = find_ciphertext_anchors(dex)
        assert len(anchors) == len(protection_report.bombs)
        assert count_live_anchors(dex) == len(anchors)


class TestSignatureTiers:
    def test_classic_misses_mesh_survivors(self, small_apk, developer_key):
        result = meshed_apk(small_apk, developer_key)
        dex = result.apk.dex()
        strip_with_signature(dex, CLASSIC_SIGNATURE)
        assert count_live_anchors(dex) > 0

    def test_extended_catches_more_but_not_aliases(self, small_apk, developer_key):
        result = meshed_apk(small_apk, developer_key)
        classic_dex = result.apk.dex()
        extended_dex = result.apk.dex()
        classic = strip_with_signature(classic_dex, CLASSIC_SIGNATURE)
        extended = strip_with_signature(extended_dex, EXTENDED_SIGNATURE)
        assert extended > classic
        # The fixture seed draws at least one aliased prologue; the
        # extended signature still anchors on the canonical invoke name,
        # so the aliased bomb stays armed.
        aliased = [
            b for b in result.report.bombs if b.prologue_shape.endswith("+alias")
        ]
        assert aliased
        assert count_live_anchors(extended_dex) >= len(
            [b for b in aliased if b.detection is not None]
        )

    def test_learned_strip_disarms_everything(self, small_apk, developer_key):
        result = meshed_apk(small_apk, developer_key)
        dex = result.apk.dex()
        patched = strip_learned(dex)
        assert patched > 0
        assert count_live_anchors(dex) == 0
        dex.validate()


class TestAttackIntegration:
    def test_deletion_attack_reports_live_sites(
        self, small_apk, developer_key, attacker_key
    ):
        from repro.attacks import DeletionAttack
        from repro.repack import repackage

        result = meshed_apk(small_apk, developer_key)
        pirated = repackage(result.apk, attacker_key)
        outcome = DeletionAttack(differential_events=300, seed=4).run(
            pirated, attacker_key, original=small_apk
        )
        assert not outcome.defeated_defense
        assert outcome.details["live_sites"] > 0

    def test_adaptive_stripper_corrupts_the_meshed_app(
        self, small_apk, developer_key, attacker_key
    ):
        from repro.attacks import AdaptiveStripperAttack
        from repro.repack import repackage

        result = meshed_apk(small_apk, developer_key)
        pirated = repackage(result.apk, attacker_key)
        outcome = AdaptiveStripperAttack(differential_events=500, seed=4).run(
            pirated, attacker_key, original=small_apk
        )
        assert outcome.details["branches_patched"] > 0
        # The blanket strip disarms the mesh but breaks woven app code:
        # the repackage is not sellable, so the defense holds.
        assert outcome.app_corrupted
        assert not outcome.defeated_defense
        # Pinned: the residual check's four seed-0 engine sessions.
        assert outcome.details == {
            "branches_patched": 6,
            "state_divergences": 2,
            "new_crashes": 0,
            "residual_detections": 0,
            "residual_mesh_trips": 0,
        }
