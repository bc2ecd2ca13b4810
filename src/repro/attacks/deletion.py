"""Code-deletion attacks (Section 2.1 / 3.4).

"A trivial attack is to delete any suspicious code."  The attacker
locates every bomb prologue (they are syntactically recognizable:
``invoke bomb.hash``) and disables it by rewriting the hash-check
branch into an unconditional jump to its no-match continuation -- the
payload can then never run.

The defense's answer is weaving: for a woven bomb the no-match path
*skips the original body*, so the app is corrupted exactly when the
deleted trigger would have fired.  Bogus bombs corrupt the app the same
way while never having carried detection at all.  Meshed apps add a
second answer: prologues are morphed per app, so the single-pattern
signature misses at least every other bomb, and the survivors' payloads
verify peer digests -- the strip itself trips a tamper response.

Two attacker classes live here:

* :class:`DeletionAttack` -- the signature-driven strip (pattern
  knowledge injected via :mod:`repro.attacks.signatures`);
* :class:`AdaptiveStripperAttack` -- the upgraded multi-pattern
  stripper that learns bomb shapes from their ciphertext anchors
  instead of matching invoke names.

Both perform the strip and then *measure* the corruption by
differential testing against the original app.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.apk.package import Apk, build_apk
from repro.attacks.base import AttackResult
from repro.attacks.signatures import (
    CLASSIC_SIGNATURE,
    DEFAULT_LEARN_WINDOW,
    PrologueSignature,
    count_live_anchors,
    strip_learned,
    strip_with_signature,
)
from repro.crypto import RSAKeyPair
from repro.errors import VMError
from repro.fuzzing.generators import DynodroidGenerator
from repro.vm.device import DevicePopulation
from repro.vm.runtime import Runtime
from repro.vm.sessions import SessionEngine


def differential_test(
    original: Apk, stripped: Apk, events: int, seed: int
) -> Tuple[int, int]:
    """Run both apps on one device/event-stream; returns (diverged
    app static fields, crashes only in the stripped app)."""
    population = DevicePopulation(seed=seed)
    device_a = population.sample()
    device_b = device_a.copy()
    runtime_a = Runtime(
        original.dex(), device=device_a,
        package=original.install_view(), seed=seed,
    )
    runtime_b = Runtime(
        stripped.dex(), device=device_b,
        package=stripped.install_view(), seed=seed,
    )
    for runtime in (runtime_a, runtime_b):
        try:
            runtime.boot()
        except VMError:
            pass

    generator = DynodroidGenerator(original.dex(), seed=seed + 1)
    divergences = 0
    crashes = 0
    for event in generator.stream(events):
        crash_a = crash_b = False
        try:
            runtime_a.session().dispatch(event)
        except VMError:
            crash_a = True
        try:
            runtime_b.session().dispatch(event)
        except VMError:
            crash_b = True
        if crash_b and not crash_a:
            crashes += 1
    app_fields = {
        key: value
        for key, value in runtime_a.statics.items()
        if not key.startswith("Bomb$")
    }
    for key, value in app_fields.items():
        if runtime_b.statics.get(key) != value:
            divergences += 1
    return divergences, crashes


class DeletionAttack:
    """Delete bombs, repackage, and measure what it did to the app."""

    def __init__(
        self,
        differential_events: int = 800,
        seed: int = 0,
        signature: PrologueSignature = CLASSIC_SIGNATURE,
    ) -> None:
        self._events = differential_events
        self._seed = seed
        self._signature = signature

    def run(
        self,
        protected: Apk,
        attacker_key: RSAKeyPair,
        original: Optional[Apk] = None,
    ) -> AttackResult:
        dex = protected.dex()
        patched = strip_with_signature(dex, self._signature)
        dex.validate()
        # Bombs the signature missed (mesh survivors) are still armed:
        # their prologue branches remain conditional in front of the
        # payload ciphertext.
        live = count_live_anchors(dex)
        stripped = build_apk(dex, protected.resources(), attacker_key)

        corrupted = False
        divergences = 0
        crashes = 0
        if original is not None:
            divergences, crashes = differential_test(
                original, stripped, self._events, self._seed
            )
            corrupted = divergences > 0 or crashes > 0

        return AttackResult(
            attack="code_deletion",
            # Deleting succeeds at silencing detection, but a corrupted
            # app is not a sellable repackage, and a bomb the signature
            # missed still detects -- the defense holds when weaving
            # made deletion destructive or the mesh kept survivors.
            defeated_defense=patched > 0 and not corrupted and live == 0,
            bombs_found=[f"site{index}" for index in range(patched)],
            bombs_disabled=[f"site{index}" for index in range(patched)],
            app_corrupted=corrupted,
            details={
                "signature": self._signature.name,
                "sites_patched": patched,
                "live_sites": live,
                "state_divergences": divergences,
                "new_crashes": crashes,
            },
        )


class AdaptiveStripperAttack:
    """The upgraded multi-pattern stripper against meshed apps.

    Instead of matching invoke names, it learns each bomb's location
    from the ciphertext constant its prologue must reference and
    retargets every guard branch shielding it
    (:func:`repro.attacks.signatures.strip_learned`).  Morphed and
    aliased prologues fall to it -- what remains is the defense's
    second line: weaving makes the blanket strip corrupting, which the
    differential test measures, and ``residual_detections`` reports
    whether any live bomb or mesh guard still fires on the repackage.
    """

    def __init__(
        self,
        differential_events: int = 800,
        seed: int = 0,
        learn_window: int = DEFAULT_LEARN_WINDOW,
        detection_sessions: int = 4,
        detection_events: int = 400,
    ) -> None:
        self._events = differential_events
        self._seed = seed
        self._learn_window = learn_window
        self._sessions = detection_sessions
        self._detection_events = detection_events

    def run(
        self,
        protected: Apk,
        attacker_key: RSAKeyPair,
        original: Optional[Apk] = None,
    ) -> AttackResult:
        dex = protected.dex()
        patched = strip_learned(dex, self._learn_window)
        dex.validate()
        stripped = build_apk(dex, protected.resources(), attacker_key)

        corrupted = False
        divergences = 0
        crashes = 0
        if original is not None:
            divergences, crashes = differential_test(
                original, stripped, self._events, self._seed
            )
            corrupted = divergences > 0 or crashes > 0

        detections, mesh_trips = self._residual_activity(stripped)
        return AttackResult(
            attack="adaptive_strip",
            defeated_defense=(
                patched > 0 and not corrupted and detections == 0 and mesh_trips == 0
            ),
            bombs_found=[f"anchor{index}" for index in range(patched)],
            bombs_disabled=[f"anchor{index}" for index in range(patched)],
            app_corrupted=corrupted,
            details={
                "branches_patched": patched,
                "state_divergences": divergences,
                "new_crashes": crashes,
                "residual_detections": detections,
                "residual_mesh_trips": mesh_trips,
            },
        )

    def _residual_activity(self, stripped: Apk) -> Tuple[int, int]:
        """Fuzz the repackaged app; count surviving detection firings
        and mesh-guard trips across attacker test sessions."""
        engine = SessionEngine(stripped, events=self._detection_events)
        detections = 0
        mesh_trips = 0
        for session in range(self._sessions):
            outcome = engine.play_one(self._seed + 100 + session)
            detections += len(outcome.detections)
            mesh_trips += sum(
                kinds.get("mesh_tripped", 0) for kinds in outcome.bomb_counts.values()
            )
        return detections, mesh_trips
