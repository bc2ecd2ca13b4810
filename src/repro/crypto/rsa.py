"""RSA signing for the APK model, private-key operations in CRT form.

Android app signing only matters here through key *identity*: a
repackaged app is re-signed with a different key pair, so the public key
embedded in CERT.RSA changes and public-key comparison detects it.  We
implement real (small) RSA rather than a stub so signature verification
genuinely fails on tampered content, which the repackager and the
attack suite exercise.

Keys default to 512 bits -- fast to generate in pure Python, and the
security of the reproduction does not rest on factoring hardness.

:meth:`RSAKeyPair.sign` works modulo the two primes (Chinese remainder
theorem): two half-size exponentiations with ``d mod (p-1)`` and
``d mod (q-1)``, joined by Garner's recombination.  The signature is
the textbook ``pow(x, d, n)`` bit for bit at well under half the cost,
and the cost matters: every pirated install that detonates a bomb signs
a report on the device.  The textbook form survives only as the oracle
in ``tests/test_crypto_rsa_kdf.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.codec import Reader
from repro.crypto.sha1 import sha1
from repro.errors import CryptoError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)


def is_probable_prime(n: int, rounds: int = 24, rng: random.Random = None) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    rng = rng or random.Random(0xC0FFEE ^ n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError("prime size too small")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key -- the identity compared by repackaging detection."""

    n: int
    e: int

    def verify(self, message: bytes, signature: int) -> bool:
        """Check ``signature^e mod n`` against the padded message digest."""
        if not 0 < signature < self.n:
            return False
        return pow(signature, self.e, self.n) == _encode_digest(message, self.n)

    def fingerprint(self) -> bytes:
        """Stable 20-byte identifier of this key (what detection compares)."""
        blob = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        return sha1(blob + self.e.to_bytes(4, "big"))

    def to_bytes(self) -> bytes:
        n_bytes = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        return len(n_bytes).to_bytes(2, "big") + n_bytes + self.e.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RSAPublicKey":
        r = Reader(blob, CryptoError)
        n = int.from_bytes(r.take(r.u16("public key blob"), "public key blob"), "big")
        e = r.u32("public key blob")
        r.end("public key blob")
        return cls(n=n, e=e)


def _encode_digest(message: bytes, n: int) -> int:
    """Deterministic full-domain-style encoding of sha1(message) below n."""
    digest = sha1(message)
    # Expand the digest with counter blocks until it covers the modulus size,
    # then reduce mod n; deterministic so sign and verify agree.
    size = (n.bit_length() + 7) // 8
    stream = b""
    counter = 0
    while len(stream) < size:
        stream += sha1(digest + counter.to_bytes(4, "big"))
        counter += 1
    return int.from_bytes(stream[:size], "big") % n


@dataclass(frozen=True)
class RSAKeyPair:
    """Developer (or attacker) signing key pair."""

    public: RSAPublicKey
    d: int
    p: int
    q: int
    dp: int  # d mod (p-1)
    dq: int  # d mod (q-1)
    qinv: int  # q^-1 mod p

    @classmethod
    def generate(cls, bits: int = 512, seed: int = None) -> "RSAKeyPair":
        """Generate a fresh key pair; pass ``seed`` for reproducibility."""
        rng = random.Random(seed)
        e = 65537
        while True:
            p = generate_prime(bits // 2, rng)
            q = generate_prime(bits // 2, rng)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            if phi % e == 0:
                continue
            n = p * q
            d = pow(e, -1, phi)
            return cls(
                public=RSAPublicKey(n=n, e=e), d=d, p=p, q=q,
                dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p),
            )

    def sign(self, message: bytes) -> int:
        """Sign sha1(message) -- used over the APK content digest."""
        x = _encode_digest(message, self.public.n)
        m1 = pow(x, self.dp, self.p)
        m2 = pow(x, self.dq, self.q)
        return m2 + (self.qinv * (m1 - m2) % self.p) * self.q
