"""Debugging and human-analyst attacks (Sections 2.1 and 8.3.2).

``DebuggerAttack`` -- run the app under a tracing debugger with
watchpoints on the identity APIs ("hook calls to getPublicKey ... to
locate the repackaging detection code").  The catch the paper makes:
"such dynamic analysis works only when repackaging detection is
executed" -- watch hits only come from payloads whose double trigger
already fired, and the methods they trace back to are dynamically
loaded ``Bomb$...`` classes whose static code is ciphertext.

``HumanAnalystAttack`` -- the Section 8.3.2 protocol.
"""

from __future__ import annotations

import random
from typing import Set

from repro.apk.package import Apk
from repro.attacks.base import AttackResult
from repro.errors import VMError
from repro.fuzzing.generators import DynodroidGenerator
from repro.fuzzing.session import FuzzSession
from repro.vm.debugger import Debugger
from repro.vm.device import DeviceProfile, ENV_DOMAINS, attacker_lab_profiles
from repro.vm.runtime import Runtime

_TIME_VARS = ("time.hour", "time.dow", "time.minute")

_IDENTITY_APIS = (
    "android.pm.get_public_key",
    "android.pm.get_manifest_digest",
    "android.pm.get_method_hash",
)


class DebuggerAttack:
    """Hook the identity APIs under a debugger and trace hits back.

    The paper's Debugging attack: run the repackaged app, watch for
    calls to ``getPublicKey`` (and friends), trace the call back to the
    responsible code, disable it.  Against BombDroid the hits that do
    occur trace back to dynamically loaded payload classes -- code that
    exists only as ciphertext in the shipped APK -- and only for bombs
    whose double trigger fired during the session.
    """

    def __init__(self, seed: int = 0, session_seconds: float = 600.0) -> None:
        self._seed = seed
        self._session_seconds = session_seconds

    def run(self, apk: Apk, total_bombs: int) -> AttackResult:
        device = attacker_lab_profiles(1, seed=self._seed)[0]
        dex = apk.dex()
        debugger = Debugger().watch_api(*_IDENTITY_APIS)
        runtime = Runtime(
            dex, device=device, package=apk.install_view(),
            seed=self._seed, tracers=[debugger],
        )
        try:
            runtime.boot()
        except VMError:
            pass
        generator = DynodroidGenerator(dex, seed=self._seed)
        start = runtime.device.clock
        iterator = generator.events()
        while runtime.device.clock - start < self._session_seconds:
            event = next(iterator)
            try:
                runtime.session().dispatch(event)
            except VMError:
                pass

        shipped_classes = set(dex.classes)
        traced_sources: Set[str] = set()
        for api in _IDENTITY_APIS:
            traced_sources |= debugger.source_methods(api)
        # Sources inside shipped (cleartext) classes are actionable; hits
        # tracing back to dynamically loaded payload classes are not --
        # their code is not in the APK the attacker can edit.
        actionable = {
            source for source in traced_sources
            if source.split(".")[0] in shipped_classes
        }
        payload_sources = traced_sources - actionable

        return AttackResult(
            attack="debugging",
            defeated_defense=bool(actionable),
            bombs_found=sorted(traced_sources),
            bombs_exposed=sorted(payload_sources),
            details={
                "watch_hits": len(debugger.watch_hits),
                "actionable_cleartext_sources": sorted(actionable),
                "payload_only_sources": sorted(payload_sources),
                "fraction_of_bombs_observed": (
                    len(payload_sources) / total_bombs if total_bombs else 0.0
                ),
            },
            notes=(
                "all watch hits trace to encrypted dynamically-loaded payloads"
                if traced_sources and not actionable
                else ("no watch hits at all" if not traced_sources else
                      "cleartext detection located")
            ),
        )


class HumanAnalystAttack:
    """The Section 8.3.2 protocol: sessions of guided fuzzing with
    blind environment mutation.

    Four skilled analysts, 20 hours per app, full knowledge of
    BombDroid's implementation.  The paper's result: at most 9.3% of
    bombs triggered -- "attackers cannot configure the environments in
    a guided way" because the inner conditions are encrypted.
    """

    def __init__(
        self,
        seed: int = 0,
        total_hours: float = 20.0,
        session_minutes: float = 30.0,
    ) -> None:
        self._seed = seed
        self._total_seconds = total_hours * 3600
        self._session_seconds = session_minutes * 60

    def run(self, apk: Apk, total_bombs: int) -> AttackResult:
        rng = random.Random(self._seed)
        device = attacker_lab_profiles(1, seed=self._seed)[0]
        dex = apk.dex()

        triggered: Set[str] = set()
        outer_satisfied: Set[str] = set()
        elapsed = 0.0
        session_index = 0
        while elapsed < self._total_seconds:
            session_index += 1
            generator = DynodroidGenerator(dex, seed=self._seed + session_index)
            session = FuzzSession(
                dex,
                generator,
                device.copy(),
                package=apk.install_view(),
                seed=self._seed + session_index,
            )
            result = session.run_for(self._session_seconds, sample_every=300)
            outer_satisfied |= result.bombs_outer_satisfied
            triggered |= result.bombs_inner_met
            elapsed += self._session_seconds
            # Between sessions: mutate a few environment variables.
            self._mutate_environment(device, rng)

        fraction = (len(triggered) / total_bombs) if total_bombs else 0.0
        return AttackResult(
            attack="human_analyst",
            defeated_defense=fraction > 0.5,
            bombs_found=sorted(outer_satisfied),
            bombs_exposed=sorted(triggered),
            details={
                "sessions": session_index,
                "outer_satisfied": len(outer_satisfied),
                "fully_triggered": len(triggered),
                "fraction_triggered": fraction,
            },
            notes=f"{fraction:.1%} of bombs triggered in {elapsed / 3600:.0f} analyst-hours",
        )

    @staticmethod
    def _mutate_environment(device: DeviceProfile, rng: random.Random) -> None:
        """Blindly flip 1-3 environment variables to random values."""
        names = [name for name in ENV_DOMAINS if name not in _TIME_VARS]
        for name in rng.sample(names, rng.randrange(1, 4)):
            device.mutate(name, ENV_DOMAINS[name].sample(rng))
        # Also jump the clock: time triggers are popular.
        device.clock += rng.uniform(0, 7 * 86400)
