"""APK signing: CERT.RSA and signature verification.

Each developer owns a unique RSA key pair.  The APK carries the public
key and a signature over MANIFEST.MF; the system verifies it at install
time.  A repackager cannot produce the original developer's signature,
so the repackaged APK necessarily carries a *different* public key --
the invariant every detection payload relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Reader
from repro.crypto import RSAKeyPair, RSAPublicKey
from repro.errors import ApkError, CryptoError, SignatureError


@dataclass(frozen=True)
class Certificate:
    """CERT.RSA: the signer's public key plus the manifest signature."""

    public_key: RSAPublicKey
    signature: int

    def serialize(self) -> bytes:
        key_blob = self.public_key.to_bytes()
        sig_blob = self.signature.to_bytes((self.signature.bit_length() + 7) // 8 or 1, "big")
        return (
            len(key_blob).to_bytes(2, "big")
            + key_blob
            + len(sig_blob).to_bytes(2, "big")
            + sig_blob
        )

    @classmethod
    def parse(cls, blob: bytes) -> "Certificate":
        r = Reader(blob, ApkError)
        key_blob = r.take(r.u16("CERT.RSA"), "CERT.RSA")
        sig_blob = r.take(r.u16("CERT.RSA"), "CERT.RSA")
        try:
            public_key = RSAPublicKey.from_bytes(key_blob)
        except CryptoError as exc:
            raise ApkError(f"malformed CERT.RSA key: {exc}") from None
        return cls(public_key=public_key, signature=int.from_bytes(sig_blob, "big"))

    def fingerprint_hex(self) -> str:
        """The hex key fingerprint exposed via ``android.pm.get_public_key``."""
        return self.public_key.fingerprint().hex()


def sign_apk_entries(manifest_blob: bytes, keypair: RSAKeyPair) -> Certificate:
    """Sign the serialized manifest; returns the certificate to embed."""
    return Certificate(public_key=keypair.public, signature=keypair.sign(manifest_blob))


def verify_apk_entries(manifest_blob: bytes, cert: Certificate) -> None:
    """Raise :class:`SignatureError` unless the signature checks out."""
    if not cert.public_key.verify(manifest_blob, cert.signature):
        raise SignatureError("APK signature does not verify against CERT.RSA")
