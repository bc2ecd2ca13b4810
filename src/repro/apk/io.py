"""On-disk / on-wire framing of the APK container (``.rapk`` files).

A simple length-prefixed binary framing of the entries, manifest and
certificate.  Lived in :mod:`repro.cli` originally; promoted here so
the batch pipeline (worker processes ship APKs as bytes, the artifact
cache stores them content-addressed) and the CLI share one codec.

The byte format is unchanged from the original CLI framing::

    b"RAPK"
    >H  entry count
    per entry (sorted by name): >H name-len, name, >I blob-len, blob
    >I  cert-len, cert

``apk_to_bytes``/``apk_from_bytes`` always carry the manifest as a
``META-INF/MANIFEST.MF`` entry so a round trip preserves signatures
bit-for-bit.
"""

from __future__ import annotations

import struct

from repro.apk.manifest import Manifest
from repro.apk.package import Apk
from repro.apk.signing import Certificate
from repro.codec import Reader
from repro.errors import ApkError

MAGIC = b"RAPK"

_MANIFEST_ENTRY = "META-INF/MANIFEST.MF"


def frame_entries(apk: Apk) -> bytes:
    """Serialize the container exactly as given (no manifest injection)."""
    out = [MAGIC, struct.pack(">H", len(apk.entries))]
    for name in sorted(apk.entries):
        blob = apk.entries[name]
        encoded = name.encode("utf-8")
        out.append(struct.pack(">H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack(">I", len(blob)))
        out.append(blob)
    cert = apk.cert.serialize()
    out.append(struct.pack(">I", len(cert)))
    out.append(cert)
    return b"".join(out)


def apk_to_bytes(apk: Apk) -> bytes:
    """Serialize with the manifest carried as an entry (round-trippable)."""
    carrier = Apk(
        entries={**apk.entries, _MANIFEST_ENTRY: apk.manifest.serialize()},
        manifest=apk.manifest,
        cert=apk.cert,
    )
    return frame_entries(carrier)


def apk_from_bytes(data: bytes, source: str = "<bytes>") -> Apk:
    """Parse a framed container; raises :class:`ApkError` on bad input."""
    if data[:4] != MAGIC:
        raise ApkError(f"{source} is not a repro APK file")
    r = Reader(data, ApkError, len(MAGIC))
    entries = {}
    for _ in range(r.u16(source)):
        name = r.text(r.u16(source), f"{source} entry name")
        entries[name] = r.take(r.u32(source), source)
    cert = Certificate.parse(r.take(r.u32(source), source))
    manifest = (
        Manifest.parse(entries[_MANIFEST_ENTRY])
        if _MANIFEST_ENTRY in entries
        else Manifest.over_entries(entries)
    )
    entries.pop(_MANIFEST_ENTRY, None)
    return Apk(entries=entries, manifest=manifest, cert=cert)


def save_apk_with_manifest(apk: Apk, path: str) -> None:
    """Write an APK container including its manifest entry."""
    with open(path, "wb") as handle:
        handle.write(apk_to_bytes(apk))


def load_apk(path: str) -> Apk:
    """Read an APK container from disk."""
    with open(path, "rb") as handle:
        data = handle.read()
    return apk_from_bytes(data, source=path)
