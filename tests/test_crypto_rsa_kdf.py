"""RSA signing (app-identity backbone) and the salted trigger KDF."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    RSAKeyPair,
    RSAPublicKey,
    Salt,
    derive_key,
    encode_value,
    hash_constant,
    is_probable_prime,
)
from repro.crypto.rsa import _encode_digest
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return RSAKeyPair.generate(bits=512, seed=42)


def test_sign_verify_roundtrip(keypair):
    signature = keypair.sign(b"manifest contents")
    assert keypair.public.verify(b"manifest contents", signature)


def test_verify_rejects_tampered_message(keypair):
    signature = keypair.sign(b"manifest contents")
    assert not keypair.public.verify(b"manifest contents!", signature)


def test_verify_rejects_foreign_signature(keypair):
    other = RSAKeyPair.generate(bits=512, seed=43)
    signature = other.sign(b"manifest contents")
    assert not keypair.public.verify(b"manifest contents", signature)


def test_verify_rejects_out_of_range_signature(keypair):
    assert not keypair.public.verify(b"m", 0)
    assert not keypair.public.verify(b"m", keypair.public.n + 5)


def test_distinct_developers_have_distinct_fingerprints():
    a = RSAKeyPair.generate(seed=1).public.fingerprint()
    b = RSAKeyPair.generate(seed=2).public.fingerprint()
    assert a != b
    assert len(a) == 20


def test_public_key_serialization_roundtrip(keypair):
    blob = keypair.public.to_bytes()
    restored = RSAPublicKey.from_bytes(blob)
    assert restored == keypair.public


def test_public_key_rejects_malformed_blob():
    with pytest.raises(CryptoError):
        RSAPublicKey.from_bytes(b"\x00\x04abc")


def test_deterministic_generation():
    assert RSAKeyPair.generate(seed=7).public == RSAKeyPair.generate(seed=7).public


def _textbook_sign(key, message):
    """The oracle: one exponentiation by the full ``d`` modulo ``n``."""
    return pow(_encode_digest(message, key.public.n), key.d, key.public.n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    bits=st.sampled_from([16, 64, 512]),
    message=st.binary(max_size=64),
)
def test_crt_sign_equals_textbook(seed, bits, message):
    key = RSAKeyPair.generate(bits=bits, seed=seed)
    signature = key.sign(message)
    assert signature == _textbook_sign(key, message)
    assert key.public.verify(message, signature)


# Signatures of RSAKeyPair.generate(seed=7000), recorded under the
# textbook signer: the CRT form must reproduce them bit for bit.
_SEED_7000_SIGNATURES = {
    b"manifest contents": int(
        "52951823265319653761359279475643438200516288895452591813341696965519"
        "26599753484193108047086170172481630233057304289195631405396424405465"
        "905809470707742359"
    ),
    b"": int(
        "10258659690425552437057323903520579835411767957552707616216260233582"
        "89480306356438749071571877072140451016718909028670943748979301723992"
        "6901298431962844748"
    ),
}


@pytest.mark.parametrize("message", sorted(_SEED_7000_SIGNATURES))
def test_signature_pins(message):
    key = RSAKeyPair.generate(seed=7000)
    assert key.sign(message) == _SEED_7000_SIGNATURES[message]


@pytest.mark.parametrize("prime", [2, 3, 5, 7, 101, 65537, 2**31 - 1])
def test_known_primes(prime):
    assert is_probable_prime(prime)


@pytest.mark.parametrize("composite", [0, 1, 4, 9, 561, 65536, 2**31])
def test_known_composites(composite):
    assert not is_probable_prime(composite)


# ---------------------------------------------------------------------------
# KDF / trigger-constant hashing
# ---------------------------------------------------------------------------


def test_key_is_128_bits():
    assert len(derive_key(42, Salt.from_seed(1))) == 16


def test_same_constant_different_salts_differ():
    # Salting defeats rainbow tables (Section 5.1).
    a = hash_constant("secret", Salt.from_seed(1))
    b = hash_constant("secret", Salt.from_seed(2))
    assert a != b


def test_salt_from_seed_is_deterministic():
    assert Salt.from_seed(9) == Salt.from_seed(9)


@given(st.one_of(st.integers(min_value=-(2**31), max_value=2**31 - 1), st.text(max_size=30)))
def test_kdf_deterministic(value):
    salt = Salt.from_seed(3)
    assert derive_key(value, salt) == derive_key(value, salt)


def test_encode_distinguishes_int_from_string():
    assert encode_value(1) != encode_value("1")


def test_encode_bool_matches_int():
    # The VM's equality treats True == 1; the hash check must agree
    # (otherwise transformation would change semantics).
    assert encode_value(True) == encode_value(1)
    assert encode_value(False) == encode_value(0)


def test_encode_rejects_unencodable():
    with pytest.raises(TypeError):
        encode_value([1, 2, 3])


@given(
    st.one_of(st.integers(min_value=-(2**40), max_value=2**40), st.text(max_size=20)),
    st.one_of(st.integers(min_value=-(2**40), max_value=2**40), st.text(max_size=20)),
)
def test_hash_constant_injective_on_distinct_values(a, b):
    salt = Salt.from_seed(5)
    if a == b or (isinstance(a, bool) != isinstance(b, bool) and a == b):
        return
    if type(a) is type(b) and a == b:
        return
    assert (hash_constant(a, salt) == hash_constant(b, salt)) == (
        encode_value(a) == encode_value(b)
    )
