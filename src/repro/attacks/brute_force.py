"""Brute-force key recovery (Section 5.1).

Everything the attacker needs is visible at a bomb site: the salt, the
stored digest ``Hc``, and the ciphertext.  Cracking means finding an
``X`` with ``Hash(X | salt) == Hc``.  The cost is ``|dom(X)| * t``:

* **weak** (boolean): 2 candidates -- always cracked;
* **medium** (int): up to 2^32 candidates -- cracked only when the
  constant happens to fall inside the attacker's enumeration budget;
* **strong** (string): unbounded -- only dictionary attacks apply.

``rainbow_attack`` demonstrates why per-bomb salts matter: a
precomputed unsalted table never matches a salted digest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.analysis.qualified_conditions import Strength
from repro.attacks.base import AttackResult
from repro.core.stats import Bomb
from repro.crypto import Salt, encode_value, sha1
from repro.crypto.kdf import hash_constant

#: Seconds to hash-and-check one candidate (used for cost *estimates*;
#: comparable to the paper's ``t``).
T_PER_TRY = 1e-6


class CrackOutcome(enum.Enum):
    CRACKED = "cracked"
    EXHAUSTED_BUDGET = "exhausted_budget"
    INFEASIBLE = "infeasible"


@dataclass
class CrackReport:
    bomb_id: str
    strength: Strength
    outcome: CrackOutcome
    tries: int
    recovered: object = None
    estimated_full_cost_seconds: float = 0.0


def classify_strength_cost(strength: Strength) -> float:
    """Worst-case enumeration cost in seconds for one bomb."""
    domain_sizes = {
        Strength.WEAK: 2,
        Strength.MEDIUM: 2**32,
        Strength.STRONG: float("inf"),
    }
    return domain_sizes[strength] * T_PER_TRY


class BruteForceAttack:
    """Enumerate candidate constants against the visible (salt, Hc)."""

    def __init__(
        self,
        int_budget: int = 200_000,
        dictionary: Sequence[str] = (),
    ) -> None:
        self._int_budget = int_budget
        self._dictionary = list(dictionary)

    def crack_bomb(self, bomb: Bomb) -> CrackReport:
        """Attack one bomb's outer condition."""
        salt = Salt(bytes.fromhex(bomb.salt_hex))
        target = bytes.fromhex(bomb.hc_hex)
        tries = 0

        if bomb.strength is Strength.WEAK:
            for candidate in (False, True):
                tries += 1
                if hash_constant(candidate, salt) == target:
                    return CrackReport(
                        bomb.bomb_id, bomb.strength, CrackOutcome.CRACKED,
                        tries, recovered=candidate,
                        estimated_full_cost_seconds=2 * T_PER_TRY,
                    )
            return CrackReport(
                bomb.bomb_id, bomb.strength, CrackOutcome.EXHAUSTED_BUDGET, tries,
                estimated_full_cost_seconds=2 * T_PER_TRY,
            )

        if bomb.strength is Strength.MEDIUM:
            # Enumerate small magnitudes first (how real attackers order
            # the search); give up at the budget.
            for magnitude in range(self._int_budget // 2):
                for candidate in (magnitude, -magnitude):
                    tries += 1
                    if hash_constant(candidate, salt) == target:
                        return CrackReport(
                            bomb.bomb_id, bomb.strength, CrackOutcome.CRACKED,
                            tries, recovered=candidate,
                            estimated_full_cost_seconds=classify_strength_cost(bomb.strength),
                        )
            return CrackReport(
                bomb.bomb_id, bomb.strength, CrackOutcome.EXHAUSTED_BUDGET, tries,
                estimated_full_cost_seconds=classify_strength_cost(bomb.strength),
            )

        # STRONG: only a dictionary has any hope.
        for word in self._dictionary:
            tries += 1
            if hash_constant(word, salt) == target:
                return CrackReport(
                    bomb.bomb_id, bomb.strength, CrackOutcome.CRACKED,
                    tries, recovered=word,
                    estimated_full_cost_seconds=float("inf"),
                )
        return CrackReport(
            bomb.bomb_id, bomb.strength, CrackOutcome.INFEASIBLE, tries,
            estimated_full_cost_seconds=float("inf"),
        )

    def run(self, bombs: Iterable[Bomb]) -> AttackResult:
        reports: List[CrackReport] = [self.crack_bomb(bomb) for bomb in bombs]
        cracked = [r for r in reports if r.outcome is CrackOutcome.CRACKED]
        by_strength: Dict[str, List[CrackReport]] = {}
        for report in reports:
            by_strength.setdefault(report.strength.value, []).append(report)
        return AttackResult(
            attack="brute_force",
            # Cracking *every* bomb is what would defeat the defense;
            # cracking the weak tail is expected and priced in.
            defeated_defense=len(cracked) == len(reports) and bool(reports),
            bombs_found=[r.bomb_id for r in reports],
            bombs_exposed=[r.bomb_id for r in cracked],
            details={
                "reports": reports,
                "cracked_by_strength": {
                    strength: sum(1 for r in group if r.outcome is CrackOutcome.CRACKED)
                    / len(group)
                    for strength, group in by_strength.items()
                },
            },
        )


def rainbow_attack(bombs: Iterable[Bomb], table_values: Sequence[object]) -> Dict[str, bool]:
    """Precomputed-table attack with *unsalted* hashes.

    Returns bomb_id -> cracked.  Always all-False when bombs are salted
    (Section 5.1: "such attacks can be defeated by mixing a unique
    plaintext salt ... into the hash computation").
    """
    table = {sha1(encode_value(value)).hex(): value for value in table_values}
    return {bomb.bomb_id: bomb.hc_hex in table for bomb in bombs}
