"""Text-search attack.

The attacker greps the disassembled code for revealing API names and
constants (Section 2.1): ``getPublicKey``, digest lookups, crypto
helpers.  Against SSN the key API name is hidden behind an obfuscated
reflection string, so the search misses it; against BombDroid the
``bomb.*`` helpers are visible -- the *sites* are findable, but the
detection logic, keys, and woven app code are encrypted, so finding a
site yields nothing safely actionable (deleting it corrupts the app;
see :mod:`repro.attacks.deletion`).
"""

from __future__ import annotations

from typing import Dict

from repro.apk.package import Apk
from repro.attacks.base import AttackResult
from repro.attacks.signatures import SUSPICIOUS_PATTERNS
from repro.dex.disassembler import disassemble

__all__ = ["TextSearchAttack", "SUSPICIOUS_PATTERNS"]


class TextSearchAttack:
    """Scan the app's disassembly for suspicious text."""

    def run(self, apk: Apk) -> AttackResult:
        listing = disassemble(apk.dex())
        hits: Dict[str, int] = {}
        for pattern in SUSPICIOUS_PATTERNS:
            count = listing.count(pattern)
            if count:
                hits[pattern] = count

        # Locating the plaintext detection logic is what defeats the
        # defense; bomb sites alone are not actionable because the
        # payload (and the original code woven into it) is ciphertext.
        plaintext_detection = any(
            pattern in hits
            for pattern in ("get_public_key", "get_manifest_digest", "get_method_hash")
        )
        bomb_sites = hits.get("bomb.hash", 0)
        return AttackResult(
            attack="text_search",
            defeated_defense=plaintext_detection,
            bombs_found=[f"site{index}" for index in range(bomb_sites)],
            details={"hits": hits},
            notes=(
                "plaintext detection API visible"
                if plaintext_detection
                else "only opaque bomb sites visible; payloads encrypted"
            ),
        )
