"""Blackbox-fuzzing attack harness (Table 4, Figure 5).

Runs each fuzzer against a protected app on an attacker lab device for
a simulated hour and reports:

* the fraction of outer trigger conditions satisfied (Table 4), and
* the fraction of double-trigger bombs *fully* triggered over time
  (Figure 5's curve).

For every fully triggered bomb the attacker can trace back and disable
it (they saw the payload); the survival rate of the remaining bombs is
the defense's resilience headline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Type

from repro.apk.package import Apk
from repro.attacks.base import AttackResult
from repro.fuzzing.generators import EventGenerator, GENERATORS
from repro.fuzzing.session import FuzzSession
from repro.vm.device import DeviceProfile, attacker_lab_profiles


@dataclass
class FuzzAttackOutcome:
    """One fuzzer's hour against one app."""

    fuzzer: str
    outer_satisfied: int
    fully_triggered: int
    total_bombs: int
    events_played: int
    coverage: float
    trigger_curve: List[tuple]

    @property
    def outer_satisfied_rate(self) -> float:
        return self.outer_satisfied / self.total_bombs if self.total_bombs else 0.0

    @property
    def fully_triggered_rate(self) -> float:
        return self.fully_triggered / self.total_bombs if self.total_bombs else 0.0


class FuzzingAttack:
    """Drive one or more fuzzers against a protected app."""

    def __init__(
        self,
        duration_seconds: float = 3600.0,
        seed: int = 0,
        device: Optional[DeviceProfile] = None,
    ) -> None:
        self._duration = duration_seconds
        self._seed = seed
        self._device = device or attacker_lab_profiles(1, seed=seed)[0]

    def run_one(
        self,
        apk: Apk,
        fuzzer_name: str,
        real_bomb_ids: Sequence[str],
    ) -> FuzzAttackOutcome:
        generator_cls: Type[EventGenerator] = GENERATORS[fuzzer_name]
        dex = apk.dex()
        session = FuzzSession(
            dex,
            generator_cls(dex, seed=self._seed),
            self._device.copy(),
            package=apk.install_view(),
            seed=self._seed,
        )
        result = session.run_for(self._duration, sample_every=60.0)
        real = set(real_bomb_ids)
        curve = [
            (elapsed, count) for elapsed, count in result.trigger_curve
        ]
        return FuzzAttackOutcome(
            fuzzer=fuzzer_name,
            outer_satisfied=len(result.bombs_outer_satisfied & real),
            fully_triggered=len(result.bombs_inner_met & real),
            total_bombs=len(real),
            events_played=result.events_played,
            coverage=result.coverage,
            trigger_curve=curve,
        )

    def run_all(
        self,
        apk: Apk,
        real_bomb_ids: Sequence[str],
        fuzzers: Sequence[str] = ("monkey", "puma", "androidhooker", "dynodroid"),
    ) -> Dict[str, FuzzAttackOutcome]:
        return {
            name: self.run_one(apk, name, real_bomb_ids) for name in fuzzers
        }

    def as_attack_result(self, outcome: FuzzAttackOutcome) -> AttackResult:
        return AttackResult(
            attack=f"blackbox_fuzzing({outcome.fuzzer})",
            defeated_defense=outcome.fully_triggered_rate > 0.5,
            bombs_found=[f"outer{index}" for index in range(outcome.outer_satisfied)],
            bombs_exposed=[f"full{index}" for index in range(outcome.fully_triggered)],
            details={
                "outer_satisfied_rate": outcome.outer_satisfied_rate,
                "fully_triggered_rate": outcome.fully_triggered_rate,
                "events_played": outcome.events_played,
            },
            notes=(
                f"{outcome.outer_satisfied_rate:.1%} outer conditions satisfied, "
                f"{outcome.fully_triggered_rate:.1%} bombs fully triggered"
            ),
        )
