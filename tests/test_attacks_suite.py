"""The adversary-analysis suite against all three defenses.

This is the resilience matrix of the paper in test form: each attack
must defeat the baseline it historically defeated and bounce off
BombDroid.
"""

import pytest

from repro.attacks import (
    BruteForceAttack,
    CrackOutcome,
    DeletionAttack,
    ForcedExecutionAttack,
    InstrumentationAttack,
    SlicingAttack,
    SymbolicAttack,
    TextSearchAttack,
)
from repro.attacks.brute_force import rainbow_attack
from repro.analysis.qualified_conditions import Strength
from repro.apk.package import build_apk
from repro.apk.resources import Resources
from repro.core import BombDroid, BombDroidConfig, SSNConfig, SSNProtector
from repro.core.naive import NaiveProtector
from repro.dex import assemble
from tests.conftest import SMALL_APP_SOURCE

#: The shared fixture app plus a login check whose ``equals`` result is
#: tested for zero: a boolean QC, hence a WEAK bomb.
WEAK_APP_SOURCE = SMALL_APP_SOURCE + """
.class Login
.field user static "guest"
.field ok static false
.method on_text 1
    sget r1, Login.user
    invoke r2, java.str.equals, r0, r1
    if_eqz r2, @no
    const r3, true
    sput r3, Login.ok
@no:
    return_void
.end
"""


@pytest.fixture(scope="module")
def ssn_apk(small_apk, developer_key):
    apk, _ = SSNProtector(SSNConfig(seed=4)).protect(small_apk, developer_key)
    return apk


@pytest.fixture(scope="module")
def weak_bombs(developer_key):
    """The real WEAK bombs of a protection that has at least one.

    The session ``protection`` fixture yields none, and re-seeding it
    would move every test that uses it.
    """
    apk = build_apk(
        assemble(WEAK_APP_SOURCE),
        Resources(strings={"app_name": "Game"}, app_name="Game", author="honest-dev"),
        developer_key,
    )
    report = BombDroid(BombDroidConfig(seed=0, profiling_events=200)).protect(
        apk, developer_key
    ).report
    weak = [b for b in report.real_bombs() if b.strength is Strength.WEAK]
    assert weak, "the weak-bomb fixture produced no WEAK bomb"
    return weak


@pytest.fixture(scope="module")
def naive_apk(small_apk, developer_key):
    apk, _ = NaiveProtector(seed=4).protect(small_apk, developer_key)
    return apk


class TestTextSearch:
    def test_naive_defeated(self, naive_apk):
        assert TextSearchAttack().run(naive_apk).defeated_defense

    def test_ssn_hides_the_name(self, ssn_apk):
        result = TextSearchAttack().run(ssn_apk)
        assert not result.defeated_defense  # reflection hid the string

    def test_bombdroid_sites_visible_but_opaque(self, protected_apk):
        result = TextSearchAttack().run(protected_apk)
        assert not result.defeated_defense
        assert result.bombs_found  # sites ARE findable; payloads are not


class TestSymbolicExecution:
    def test_naive_solved(self, naive_apk):
        result = SymbolicAttack(max_paths=48).run(naive_apk)
        assert result.defeated_defense
        assert result.details["trigger_models"]

    def test_ssn_walked_through(self, ssn_apk):
        result = SymbolicAttack(max_paths=48).run(ssn_apk)
        assert result.defeated_defense
        assert "android.pm.get_public_key" in result.details["reflection_targets"]
        assert result.details["leaked_key_constants"]

    def test_bombdroid_hits_hash_walls(self, protected_apk, protection_report):
        result = SymbolicAttack(max_paths=48).run(protected_apk)
        assert not result.defeated_defense
        assert result.details["hash_walls"] > 0
        assert result.bombs_found  # bombs located, payloads sealed (G1)

    def test_leaked_ssn_key_is_the_real_one(self, ssn_apk, developer_key):
        result = SymbolicAttack(max_paths=48).run(ssn_apk)
        assert developer_key.public.fingerprint().hex() in (
            result.details["leaked_key_constants"]
        )


class TestForcedExecution:
    def test_naive_payload_exposed(self, naive_apk):
        result = ForcedExecutionAttack(seed=1, per_method_branches=6).run(naive_apk)
        assert result.defeated_defense

    def test_bombdroid_decrypt_failures(self, protected_apk):
        result = ForcedExecutionAttack(seed=1, per_method_branches=6).run(protected_apk)
        assert not result.defeated_defense
        assert result.details["decrypt_failures"] > 0  # G2 in action


class TestSlicing:
    def test_naive_slice_reveals_detection(self, naive_apk):
        result = SlicingAttack(seed=2).run(naive_apk)
        assert result.defeated_defense

    def test_bombdroid_slices_hit_the_key_wall(self, protected_apk):
        result = SlicingAttack(seed=2).run(protected_apk)
        assert not result.defeated_defense
        assert result.details["criteria"] > 0


class TestInstrumentation:
    def test_ssn_fully_defeated(self, ssn_apk, attacker_key, developer_key):
        attack = InstrumentationAttack(seed=3)
        result = attack.run_against_ssn(
            ssn_apk, attacker_key, developer_key.public.fingerprint().hex()
        )
        assert result.defeated_defense
        assert result.details["key_constants_patched"] > 0
        assert not result.details["detection_survived"]

    def test_bombdroid_gives_nothing_to_patch(
        self, protected_apk, attacker_key, developer_key
    ):
        attack = InstrumentationAttack(seed=3)
        result = attack.run_against_bombdroid(
            protected_apk, attacker_key, developer_key.public.fingerprint().hex()
        )
        assert not result.defeated_defense
        assert result.details["key_constants_patched"] == 0
        assert result.details["reflection_targets"] == []


class TestDeletion:
    def test_deletion_corrupts_woven_app(self, protected_apk, attacker_key, small_apk):
        result = DeletionAttack(differential_events=500, seed=4).run(
            protected_apk, attacker_key, original=small_apk
        )
        assert result.details["sites_patched"] > 0
        assert result.app_corrupted          # weaving did its job (G4)
        assert not result.defeated_defense

    def test_deleting_artificial_only_bombs_is_safe_for_attacker(
        self, small_apk, developer_key, attacker_key
    ):
        """Ablation: with only artificial bombs (no existing-QC
        transforms), deletion is free -- an artificial site guards no
        original code.  Existing-QC bombs are deletion-resistant even
        unwoven, because the branch decision itself was replaced by the
        hash check and the constant needed to reconstruct it is gone."""
        from repro.core import BombDroid, BombDroidConfig

        config = BombDroidConfig(
            seed=6, profiling_events=200, bogus_ratio=0.0, alpha=1.0,
            max_bombs_per_method=0,  # suppress existing-QC bombs entirely
        )
        artificial_only, report = BombDroid(config).protect(small_apk, developer_key)
        assert report.total_injected > 0
        result = DeletionAttack(differential_events=500, seed=4).run(
            artificial_only, attacker_key, original=small_apk
        )
        assert not result.app_corrupted
        assert result.defeated_defense


class TestBruteForce:
    def test_weak_bombs_crack_instantly(self, weak_bombs):
        attack = BruteForceAttack(int_budget=10)
        for bomb in weak_bombs:
            report = attack.crack_bomb(bomb)
            assert report.outcome is CrackOutcome.CRACKED
            assert report.tries <= 2

    def test_small_int_constants_crack_within_budget(self, protection_report):
        medium = [
            b for b in protection_report.real_bombs()
            if b.strength is Strength.MEDIUM and isinstance(b.const_value, int)
            and abs(b.const_value) < 1000
        ]
        attack = BruteForceAttack(int_budget=5000)
        for bomb in medium:
            assert attack.crack_bomb(bomb).recovered == bomb.const_value

    def test_string_bombs_resist_without_dictionary(self, protection_report):
        strong = [
            b for b in protection_report.real_bombs() if b.strength is Strength.STRONG
        ]
        if not strong:
            pytest.skip("fixture produced no strong bombs")
        attack = BruteForceAttack(dictionary=["wrong", "guesses"])
        for bomb in strong:
            assert attack.crack_bomb(bomb).outcome is CrackOutcome.INFEASIBLE

    def test_dictionary_cracks_known_words(self, protection_report):
        strong = [
            b for b in protection_report.real_bombs() if b.strength is Strength.STRONG
        ]
        if not strong:
            pytest.skip("fixture produced no strong bombs")
        attack = BruteForceAttack(dictionary=[b.const_value for b in strong])
        for bomb in strong:
            assert attack.crack_bomb(bomb).outcome is CrackOutcome.CRACKED

    def test_rainbow_tables_defeated_by_salt(self, protection_report):
        bombs = protection_report.real_bombs()
        table_values = [b.const_value for b in bombs] + list(range(100))
        outcome = rainbow_attack(bombs, table_values)
        assert not any(outcome.values())  # salting wins (Section 5.1)

    def test_cost_estimates_ordered_by_strength(self):
        from repro.attacks import classify_strength_cost

        assert (
            classify_strength_cost(Strength.WEAK)
            < classify_strength_cost(Strength.MEDIUM)
            < classify_strength_cost(Strength.STRONG)
        )
