"""AES-128 block cipher, modes, and padding behavior."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.core.payloads import decrypt_payload, encrypt_payload
from repro.crypto import AES128, Salt, pkcs7_pad, pkcs7_unpad
from repro.dex import assemble
from repro.errors import BadPaddingError, CryptoError
from tests import aes_reference


FIPS_KEY = bytes(range(16))
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def test_fips197_appendix_c_vector():
    assert AES128(FIPS_KEY).encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT


def test_fips197_decrypt_vector():
    assert AES128(FIPS_KEY).decrypt_block(FIPS_CIPHERTEXT) == FIPS_PLAINTEXT


# NIST SP 800-38A, F.2.1 (CBC-AES128.Encrypt) and F.2.2 (.Decrypt).
SP800_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_CIPHERTEXT = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)


def test_sp800_38a_cbc_encrypt_vector():
    # encrypt_cbc appends a full PKCS#7 block to the 64-byte message.
    ciphertext = AES128(SP800_KEY).encrypt_cbc(SP800_PLAINTEXT, SP800_IV)
    assert len(ciphertext) == 80
    assert ciphertext[:64] == SP800_CIPHERTEXT


def test_sp800_38a_cbc_decrypt_vector():
    cipher = AES128(SP800_KEY)
    previous = SP800_IV
    for start in range(0, 64, 16):
        block = SP800_CIPHERTEXT[start : start + 16]
        plain = bytes(
            a ^ b for a, b in zip(cipher.decrypt_block(block), previous)
        )
        assert plain == SP800_PLAINTEXT[start : start + 16]
        previous = block
    padded = cipher.encrypt_cbc(SP800_PLAINTEXT, SP800_IV)
    assert cipher.decrypt_cbc(padded, SP800_IV) == SP800_PLAINTEXT


blocks16 = st.binary(min_size=16, max_size=16)


@given(blocks16, blocks16)
def test_blocks_match_fips197_reference(key, block):
    cipher = AES128(key)
    assert cipher.encrypt_block(block) == aes_reference.encrypt_block(key, block)
    assert cipher.decrypt_block(block) == aes_reference.decrypt_block(key, block)


@given(blocks16, blocks16, st.binary(max_size=400))
def test_cbc_matches_fips197_reference(key, iv, message):
    cipher = AES128(key)
    ciphertext = cipher.encrypt_cbc(message, iv)
    assert ciphertext == aes_reference.encrypt_cbc(key, message, iv)
    assert cipher.decrypt_cbc(ciphertext, iv) == message
    assert aes_reference.decrypt_cbc(key, ciphertext, iv) == message


@given(blocks16, st.binary(min_size=8, max_size=8), st.binary(max_size=100))
def test_ctr_matches_fips197_reference(key, nonce, data):
    keystream = b"".join(
        aes_reference.encrypt_block(key, nonce + counter.to_bytes(8, "big"))
        for counter in range(len(data) // 16 + 1)
    )
    expected = bytes(a ^ b for a, b in zip(data, keystream))
    assert AES128(key).encrypt_ctr(data, nonce) == expected


def test_payload_ciphertext_pinned():
    """Protected APK bytes depend on the exact payload ciphertext; any
    cipher change that alters them must fail here first."""
    dex = assemble(
        """
.class Bomb$pin
.field leak static null
.method run 1
    const r1, 42
    return r0
.end
"""
    )
    ciphertext = encrypt_payload(dex, 1234, Salt.from_seed(7))
    assert len(ciphertext) == 80
    assert (
        hashlib.sha1(ciphertext).hexdigest()
        == "18b405e7bbbe95ebe228f7b59345226a26fe162b"
    )
    assert decrypt_payload(ciphertext, 1234, Salt.from_seed(7)) == dex


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_block_roundtrip(key, block):
    cipher = AES128(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_key_size_enforced():
    with pytest.raises(CryptoError):
        AES128(b"short")


def test_block_size_enforced():
    with pytest.raises(CryptoError):
        AES128(FIPS_KEY).encrypt_block(b"tiny")


@given(st.binary(max_size=400), st.binary(min_size=16, max_size=16))
def test_cbc_roundtrip(plaintext, iv):
    cipher = AES128(FIPS_KEY)
    assert cipher.decrypt_cbc(cipher.encrypt_cbc(plaintext, iv), iv) == plaintext


def test_cbc_wrong_key_fails_padding():
    """The property forced-execution attacks observe: wrong key -> error.

    (Probabilistically a wrong key could produce valid padding, but not
    for a fixed test vector.)
    """
    cipher = AES128(FIPS_KEY)
    ciphertext = cipher.encrypt_cbc(b"payload bytecode here", b"\x00" * 16)
    wrong = AES128(bytes(reversed(FIPS_KEY)))
    with pytest.raises((BadPaddingError, CryptoError)):
        wrong.decrypt_cbc(ciphertext, b"\x00" * 16)


def test_cbc_ciphertext_differs_from_plaintext():
    cipher = AES128(FIPS_KEY)
    plaintext = b"A" * 64
    ciphertext = cipher.encrypt_cbc(plaintext, b"\x01" * 16)
    assert plaintext not in ciphertext


def test_cbc_identical_blocks_encrypt_differently():
    # CBC chaining: repeated plaintext blocks must not repeat in the
    # ciphertext (ECB would leak structure of the payload bytecode).
    cipher = AES128(FIPS_KEY)
    ciphertext = cipher.encrypt_cbc(b"B" * 32, b"\x00" * 16)
    assert ciphertext[:16] != ciphertext[16:32]


def test_cbc_rejects_bad_iv_and_ciphertext():
    cipher = AES128(FIPS_KEY)
    with pytest.raises(CryptoError):
        cipher.encrypt_cbc(b"x", b"shortiv")
    with pytest.raises(CryptoError):
        cipher.decrypt_cbc(b"123", b"\x00" * 16)
    with pytest.raises(CryptoError):
        cipher.decrypt_cbc(b"", b"\x00" * 16)


@given(st.binary(max_size=100), st.binary(min_size=8, max_size=8))
def test_ctr_roundtrip(data, nonce):
    cipher = AES128(FIPS_KEY)
    assert cipher.encrypt_ctr(cipher.encrypt_ctr(data, nonce), nonce) == data


@given(st.binary(max_size=64), st.integers(min_value=1, max_value=255))
def test_pkcs7_roundtrip(data, block_size):
    padded = pkcs7_pad(data, block_size)
    assert len(padded) % block_size == 0
    assert pkcs7_unpad(padded, block_size) == data


def test_pkcs7_detects_corruption():
    padded = pkcs7_pad(b"hello", 16)
    corrupted = padded[:-1] + bytes([padded[-1] ^ 0x80])
    with pytest.raises(BadPaddingError):
        pkcs7_unpad(corrupted, 16)


def test_pkcs7_rejects_zero_pad_byte():
    with pytest.raises(BadPaddingError):
        pkcs7_unpad(b"\x00" * 16, 16)


def test_pkcs7_rejects_oversized_pad_byte():
    with pytest.raises(BadPaddingError):
        pkcs7_unpad(b"\x11" * 16, 16)
