"""Code-instrumentation attack (Section 2.1).

The attacker modifies code and hooks runtime facilities to assist
analysis:

* force ``rand()`` deterministic so probabilistic detection (SSN) runs
  on every invocation;
* log reflection-call destinations to discover hidden API calls;
* patch plaintext constants (SSN's ``PUBKEY``) so detection compares
  against the *attacker's* key.

Against SSN this is fatal: the whole Listing-1 structure is in the
clear.  Against BombDroid the same playbook stalls -- the comparison
constant lives inside ciphertext, and patching the only visible
constants (``Hc``, ciphertext) just breaks decryption, corrupting the
app wherever a bomb would have fired.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apk.package import Apk, build_apk
from repro.attacks.base import AttackResult
from repro.crypto import RSAKeyPair
from repro.dex import instructions as ins
from repro.dex.model import DexFile
from repro.dex.opcodes import Op
from repro.errors import VMError
from repro.fuzzing.generators import DynodroidGenerator
from repro.vm.device import attacker_lab_profiles
from repro.vm.runtime import Runtime


def force_rand_deterministic(dex: DexFile) -> int:
    """Replace every ``java.rand.next`` call's result with 0."""
    patched = 0
    for method in dex.iter_methods():
        for pc, instr in enumerate(method.instructions):
            if instr.op is Op.INVOKE and instr.value == "java.rand.next":
                if instr.dst is not None:
                    method.instructions[pc] = ins.const(instr.dst, 0)
                    patched += 1
        method.invalidate()
    return patched


def log_reflection_targets(apk: Apk, events: int = 400, seed: int = 0) -> List[str]:
    """Run the app in the attacker's lab and collect reflection
    destinations (the check-the-destination trick from Section 1)."""
    device = attacker_lab_profiles(1, seed=seed)[0]
    runtime = Runtime(apk.dex(), device=device, package=apk.install_view(), seed=seed)
    try:
        runtime.boot()
    except VMError:
        pass
    generator = DynodroidGenerator(apk.dex(), seed=seed + 1)
    for event in generator.stream(events):
        try:
            runtime.session().dispatch(event)
        except VMError:
            pass
    return sorted(set(runtime.reflection_log))


def patch_string_constants(dex: DexFile, old: str, new: str) -> int:
    """Rewrite every CONST loading ``old`` to load ``new`` instead."""
    patched = 0
    for method in dex.iter_methods():
        for pc, instr in enumerate(method.instructions):
            if instr.op is Op.CONST and instr.value == old:
                method.instructions[pc] = ins.const(instr.dst, new)
                patched += 1
        method.invalidate()
    return patched


class InstrumentationAttack:
    """The full SSN-killing playbook, also aimed at BombDroid."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def run_against_ssn(
        self,
        protected: Apk,
        attacker_key: RSAKeyPair,
        original_key_hex: str,
    ) -> AttackResult:
        """Defeat SSN: derandomize, find the hidden call, patch PUBKEY."""
        dex = protected.dex()
        derandomized = force_rand_deterministic(dex)
        probe = build_apk(dex, protected.resources(), attacker_key)
        reflection_targets = log_reflection_targets(probe, seed=self._seed)
        found_hidden_call = "android.pm.get_public_key" in reflection_targets

        # Patch the plaintext original-key constant to the attacker's
        # fingerprint so the comparison always "passes".
        patched_keys = patch_string_constants(
            dex, original_key_hex, attacker_key.public.fingerprint().hex()
        )
        cracked = build_apk(dex, protected.resources(), attacker_key)
        detection_survived = self._detection_fires(cracked)

        return AttackResult(
            attack="code_instrumentation(ssn)",
            defeated_defense=found_hidden_call and patched_keys > 0 and not detection_survived,
            bombs_found=reflection_targets,
            bombs_disabled=[f"key_const_{index}" for index in range(patched_keys)],
            details={
                "rand_calls_derandomized": derandomized,
                "reflection_targets": reflection_targets,
                "key_constants_patched": patched_keys,
                "detection_survived": detection_survived,
            },
        )

    def run_against_bombdroid(
        self,
        protected: Apk,
        attacker_key: RSAKeyPair,
        original_key_hex: str,
        original: Optional[Apk] = None,
    ) -> AttackResult:
        """Apply the same playbook to a bomb-protected app.

        The reflection log is empty (no reflection is used), there is no
        plaintext key constant to patch, and patching the visible Hc
        digests only stops payloads from decrypting -- which deletes
        woven app code, i.e. corrupts the app.
        """
        dex = protected.dex()
        derandomized = force_rand_deterministic(dex)
        probe = build_apk(dex, protected.resources(), attacker_key)
        reflection_targets = log_reflection_targets(probe, seed=self._seed)
        patched_keys = patch_string_constants(
            dex, original_key_hex, attacker_key.public.fingerprint().hex()
        )
        return AttackResult(
            attack="code_instrumentation(bombdroid)",
            defeated_defense=patched_keys > 0 or bool(reflection_targets),
            bombs_found=reflection_targets,
            details={
                "rand_calls_derandomized": derandomized,
                "reflection_targets": reflection_targets,
                "key_constants_patched": patched_keys,
            },
            notes="no plaintext key constants or reflection calls to exploit",
        )

    def _detection_fires(self, apk: Apk, events: int = 600) -> bool:
        """Does the (cracked) app still respond to repackaging?"""
        device = attacker_lab_profiles(1, seed=self._seed)[0]
        runtime = Runtime(apk.dex(), device=device, package=apk.install_view(), seed=self._seed)
        try:
            runtime.boot()
        except VMError:
            return True
        generator = DynodroidGenerator(apk.dex(), seed=self._seed + 2)
        for event in generator.stream(events):
            try:
                runtime.session().dispatch(event)
            except VMError as exc:
                if "SSN" in str(exc):
                    return True
        return bool(runtime.detections)
