"""Versioned, signed wire format for detection reports.

The paper's decentralized argument (Sections 1, 4.2) rests on user
devices sending the foreign signing key home.  On the wire that is a
:class:`DetectionReport` -- app, bomb, device, the observed key
fingerprint, a timestamp and a random nonce -- carried inside a
:class:`SignedReport` envelope:

* the report body is serialized canonically and **RSA-signed** with the
  device's attestation key (:mod:`repro.crypto.rsa`), so a pirate
  cannot forge a flood of reports naming the *developer's* key;
* the attestation **public key travels with the report** (self-
  contained verification, batch attestation keys may be shared across
  devices the way real-world device attestation works), so the
  ingestion service needs no per-device registry -- O(1) state per
  report, which is what lets the fleet driver scale to millions of
  devices;
* the **nonce** deduplicates client retries and the **timestamp** ages
  out replays (the server rejects reports older than its freshness
  window).

Two codecs are provided: a compact binary framing (magic ``DRPT``) and
a JSON object (for ``repro serve-reports`` file/stdin ingestion).

The module also owns the *text channel* bridging the in-VM REPORT
response to the wire: payload bytecode emits a structured
``repackaged:v1:app=..:bomb=..:key=..`` string through
``android.net.report``; :func:`parse_report_text` recovers the fields
from that -- or, tolerantly, from the legacy free-form strings older
builds emitted.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.codec import Reader
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
from repro.errors import CryptoError, WireError

#: Current wire version.  Decoders accept only versions they know.
WIRE_VERSION = 1

#: Magic prefix of the binary framing.
WIRE_MAGIC = b"DRPT"

#: Structured text-channel prefix emitted by the REPORT response.
TEXT_PREFIX = "repackaged:v1:"

#: ``>d timestamp | >Q nonce``, the fixed tail of a report body.
_BODY_TAIL = struct.Struct(">dQ")


@dataclass(frozen=True)
class DetectionReport:
    """One device's account of one bomb detection."""

    app_name: str
    bomb_id: str
    device_id: str
    observed_key_hex: str
    detection_method: str = "public_key"
    timestamp: float = 0.0
    nonce: int = 0
    version: int = WIRE_VERSION


def pack_str(value: str) -> bytes:
    """One ``>H``-prefixed UTF-8 field (report bodies, WAL records, snapshots)."""
    encoded = value.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise WireError("report field too long")
    return struct.pack(">H", len(encoded)) + encoded


def read_str(r: Reader) -> str:
    """Inverse of :func:`pack_str`: one ``>H``-prefixed UTF-8 field."""
    return r.text(r.u16("report field"), "report field")


def canonical_bytes(report: DetectionReport) -> bytes:
    """Deterministic serialization of the report body (what is signed)."""
    return b"".join(
        (
            struct.pack(">B", report.version),
            pack_str(report.app_name),
            pack_str(report.bomb_id),
            pack_str(report.device_id),
            pack_str(report.observed_key_hex),
            pack_str(report.detection_method),
            struct.pack(">d", report.timestamp),
            struct.pack(">Q", report.nonce & 0xFFFFFFFFFFFFFFFF),
        )
    )


@dataclass(frozen=True)
class SignedReport:
    """Report body + attestation key + RSA signature over the body."""

    report: DetectionReport
    attestation_key: RSAPublicKey
    signature: int

    def verify(self) -> bool:
        """True iff the signature matches the canonical body."""
        try:
            return self.attestation_key.verify(
                canonical_bytes(self.report), self.signature
            )
        except (CryptoError, WireError):
            return False


def sign_report(report: DetectionReport, key: RSAKeyPair) -> SignedReport:
    """Sign the canonical body with the device attestation key."""
    return SignedReport(
        report=report,
        attestation_key=key.public,
        signature=key.sign(canonical_bytes(report)),
    )


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------


def encode_report(signed: SignedReport) -> bytes:
    """Binary framing: magic, body, key blob, signature."""
    body = canonical_bytes(signed.report)
    key_blob = signed.attestation_key.to_bytes()
    sig_bytes = signed.signature.to_bytes(
        (signed.signature.bit_length() + 7) // 8 or 1, "big"
    )
    return b"".join(
        (
            WIRE_MAGIC,
            struct.pack(">I", len(body)),
            body,
            struct.pack(">H", len(key_blob)),
            key_blob,
            struct.pack(">H", len(sig_bytes)),
            sig_bytes,
        )
    )


def decode_report(blob: bytes) -> SignedReport:
    """Inverse of :func:`encode_report`; raises :class:`WireError`."""
    if not isinstance(blob, (bytes, bytearray)) or blob[:4] != WIRE_MAGIC:
        raise WireError("not a detection-report frame")
    r = Reader(bytes(blob), WireError, len(WIRE_MAGIC))
    report = decode_report_body(r.take(r.u32("report frame"), "report body"))
    try:
        key = RSAPublicKey.from_bytes(r.take(r.u16("attestation key"), "attestation key"))
    except CryptoError as exc:
        raise WireError(f"bad attestation key: {exc}") from None
    signature = r.take(r.u16("signature"), "signature")
    return SignedReport(
        report=report,
        attestation_key=key,
        signature=int.from_bytes(signature, "big"),
    )


def decode_report_body(body: bytes) -> DetectionReport:
    """Inverse of :func:`canonical_bytes`; raises :class:`WireError`."""
    r = Reader(body, WireError)
    version = r.u8("report body")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    app_name = read_str(r)
    bomb_id = read_str(r)
    device_id = read_str(r)
    observed_key_hex = read_str(r)
    detection_method = read_str(r)
    timestamp, nonce = r.unpack(_BODY_TAIL, "report body")
    r.end("report body")
    return DetectionReport(
        app_name=app_name,
        bomb_id=bomb_id,
        device_id=device_id,
        observed_key_hex=observed_key_hex,
        detection_method=detection_method,
        timestamp=timestamp,
        nonce=nonce,
        version=version,
    )


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


def report_to_json(signed: SignedReport) -> str:
    """JSON object form (one line; used by ``repro serve-reports``)."""
    return json.dumps(
        {
            "version": signed.report.version,
            "app": signed.report.app_name,
            "bomb": signed.report.bomb_id,
            "device": signed.report.device_id,
            "key": signed.report.observed_key_hex,
            "method": signed.report.detection_method,
            "timestamp": signed.report.timestamp,
            "nonce": signed.report.nonce,
            "attestation_key": signed.attestation_key.to_bytes().hex(),
            "signature": hex(signed.signature),
        },
        sort_keys=True,
    )


def report_from_json(line: str) -> SignedReport:
    """Inverse of :func:`report_to_json`; raises :class:`WireError`."""
    try:
        obj = json.loads(line)
    except (TypeError, ValueError, RecursionError) as exc:
        raise WireError(f"bad report JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError("report JSON must be an object")
    try:
        report = DetectionReport(
            app_name=str(obj["app"]),
            bomb_id=str(obj["bomb"]),
            device_id=str(obj["device"]),
            observed_key_hex=str(obj["key"]),
            detection_method=str(obj.get("method", "public_key")),
            timestamp=float(obj.get("timestamp", 0.0)),
            nonce=int(obj.get("nonce", 0)),
            version=int(obj.get("version", WIRE_VERSION)),
        )
        key = RSAPublicKey.from_bytes(bytes.fromhex(obj["attestation_key"]))
        signature = int(str(obj["signature"]), 16)
    except (KeyError, TypeError, ValueError, OverflowError, CryptoError) as exc:
        raise WireError(f"bad report JSON: {exc}") from None
    if report.version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {report.version}")
    return SignedReport(report=report, attestation_key=key, signature=signature)


# ---------------------------------------------------------------------------
# Text channel (the in-VM `android.net.report` string)
# ---------------------------------------------------------------------------

#: Legacy free-form extraction: a run of hex immediately following
#: ``key=``.  Key fingerprints are 40 hex chars (SHA-1); anything
#: shorter in free text (e.g. "key=deadbeef") is not mistaken for one.
_LEGACY_KEY_RE = re.compile(r"key=([0-9a-fA-F]{16,})")


def format_report_text(app_name: str, bomb_id: str) -> str:
    """Structured text prefix emitted by the REPORT response bytecode.

    The runtime key fingerprint is concatenated at the end by the
    payload (it is only known at detection time).
    """
    return f"{TEXT_PREFIX}app={app_name}:bomb={bomb_id}:key="


def parse_report_text(text: str) -> Dict[str, str]:
    """Recover structured fields from a text-channel report.

    Structured ``repackaged:v1:`` messages are split into ``field=value``
    segments.  Anything else goes through the tolerant legacy path,
    which extracts the *last plausible fingerprint* following ``key=``
    -- unlike the old ``rsplit("key=", 1)``, free text mentioning
    ``key=`` does not derail it.
    """
    fields: Dict[str, str] = {}
    if text.startswith(TEXT_PREFIX):
        fields["version"] = "1"
        for segment in text[len(TEXT_PREFIX) :].split(":"):
            name, sep, value = segment.partition("=")
            if sep:
                fields[name] = value
        key = fields.get("key", "")
        if not _is_fingerprint(key):
            fields.pop("key", None)
        return fields
    # Legacy: "repackaged:App:bomb:key=<hex>" and arbitrary free text.
    matches = [m for m in _LEGACY_KEY_RE.findall(text) if _is_fingerprint(m)]
    if matches:
        fields["key"] = matches[-1].lower()
    parts = text.split(":")
    if len(parts) >= 4 and parts[0] == "repackaged":
        fields.setdefault("app", parts[1])
        fields.setdefault("bomb", parts[2])
    return fields


def _is_fingerprint(value: str) -> bool:
    """A plausible SHA-1 key fingerprint: exactly 40 hex chars."""
    return len(value) == 40 and all(c in "0123456789abcdefABCDEF" for c in value)


def report_from_text(
    text: str,
    device_id: str,
    timestamp: float = 0.0,
    nonce: int = 0,
    detection_method: str = "public_key",
) -> Optional[DetectionReport]:
    """Build a wire report from the in-VM text channel, if it names a key."""
    fields = parse_report_text(text)
    key = fields.get("key")
    if not key:
        return None
    return DetectionReport(
        app_name=fields.get("app", ""),
        bomb_id=fields.get("bomb", ""),
        device_id=device_id,
        observed_key_hex=key.lower(),
        detection_method=detection_method,
        timestamp=timestamp,
        nonce=nonce,
    )
