"""MANIFEST.MF: per-entry content digests.

When an APK is built, every entry gets a SHA-1 digest recorded in
MANIFEST.MF; the signature then covers the manifest.  Once the app is
installed, the manifest is managed by the Android system and app
processes cannot rewrite it -- which is why code-digest comparison
(reading ``android.pm.get_manifest_digest`` at runtime) detects a
repackager's modified ``classes.dex``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.crypto import sha1_hex
from repro.errors import ApkError


@dataclass
class Manifest:
    """Entry name -> SHA-1 hex digest."""

    digests: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def over_entries(cls, entries: Dict[str, bytes]) -> "Manifest":
        """Digest every entry of an APK-to-be."""
        return cls({name: sha1_hex(data) for name, data in sorted(entries.items())})

    def serialize(self) -> bytes:
        lines = ["Manifest-Version: 1.0"]
        for name in sorted(self.digests):
            lines.append(f"Name: {name}")
            lines.append(f"SHA1-Digest: {self.digests[name]}")
        return ("\n".join(lines) + "\n").encode("ascii")

    @classmethod
    def parse(cls, blob: bytes) -> "Manifest":
        digests: Dict[str, str] = {}
        name = None
        try:
            text = blob.decode("ascii")
        except UnicodeDecodeError:
            raise ApkError("MANIFEST.MF is not ASCII") from None
        for line in text.splitlines():
            if line.startswith("Name: "):
                name = line[len("Name: ") :]
            elif line.startswith("SHA1-Digest: "):
                if name is None:
                    raise ApkError("digest line before any Name line")
                digests[name] = line[len("SHA1-Digest: ") :]
                name = None
        return cls(digests)

    def matches(self, entries: Dict[str, bytes]) -> bool:
        """True when every entry's content matches its recorded digest."""
        if set(entries) != set(self.digests):
            return False
        return all(sha1_hex(entries[name]) == digest for name, digest in self.digests.items())

    def get(self, entry: str) -> str:
        try:
            return self.digests[entry]
        except KeyError:
            raise ApkError(f"no manifest entry for {entry!r}") from None
