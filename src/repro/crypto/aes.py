"""Pure-Python AES-128 (FIPS 197) with CBC and CTR modes.

BombDroid encrypts bomb payloads with AES-128 under a key derived from
the trigger constant (:mod:`repro.crypto.kdf`).  Decrypting with the
wrong key yields garbage that fails PKCS#7 unpadding with overwhelming
probability, which is exactly the behaviour forced-execution attacks
observe when they skip the trigger check.
"""

from __future__ import annotations

from repro.errors import BadPaddingError, CryptoError

# --------------------------------------------------------------------------
# Tables.  The S-box is generated from the AES definition (multiplicative
# inverse in GF(2^8) followed by the affine transform) rather than pasted,
# so a typo cannot silently corrupt it.
# --------------------------------------------------------------------------


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple:
    # Multiplicative inverses via exponentiation: a^254 == a^-1 in GF(2^8).
    def inverse(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        exponent = 254
        base = a
        while exponent:
            if exponent & 1:
                result = _gf_mul(result, base)
            base = _gf_mul(base, base)
            exponent >>= 1
        return result

    sbox = []
    for value in range(256):
        inv = inverse(value)
        # Affine transform: b ^= rotl(b,1)^rotl(b,2)^rotl(b,3)^rotl(b,4)^0x63
        b = inv
        result = 0x63
        for shift in range(5):
            result ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox.append(result & 0xFF)
    return tuple(sbox)


_SBOX = _build_sbox()
_INV_SBOX = tuple(_SBOX.index(i) for i in range(256))
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# MixColumns multiplies by fixed coefficients; 256-entry lookup tables
# keep the table construction below out of bit-twiddling.
_MUL = {
    factor: tuple(_gf_mul(value, factor) for value in range(256))
    for factor in (2, 3, 9, 11, 13, 14)
}

_MASK32 = 0xFFFFFFFF


def _rotations(table0: tuple) -> tuple:
    """``table0`` and its words rotated right by 1, 2 and 3 bytes (one
    table per state row)."""
    tables = [table0]
    for _ in range(3):
        tables.append(tuple(((w >> 8) | (w << 24)) & _MASK32 for w in tables[-1]))
    return tuple(tables)


# T-tables: one round of SubBytes + ShiftRows + MixColumns on a state of
# four big-endian column words is 16 table lookups and XORs.  Bomb
# payloads are encrypted once per bomb at protect time and decrypted on
# every outer-trigger hit at run time (only the classload is cached), so
# a word-oriented round is what keeps both paths cheap in pure Python.
_TE = _rotations(tuple(
    (_MUL[2][s] << 24) | (s << 16) | (s << 8) | _MUL[3][s] for s in _SBOX
))
_TD = _rotations(tuple(
    (_MUL[14][s] << 24) | (_MUL[9][s] << 16) | (_MUL[13][s] << 8) | _MUL[11][s]
    for s in _INV_SBOX
))


def _inv_mix_word(word: int) -> int:
    """InvMixColumns of one column word (for the equivalent inverse cipher)."""
    td0, td1, td2, td3 = _TD
    return (
        td0[_SBOX[word >> 24]] ^ td1[_SBOX[(word >> 16) & 0xFF]]
        ^ td2[_SBOX[(word >> 8) & 0xFF]] ^ td3[_SBOX[word & 0xFF]]
    )


def _join(words) -> int:
    """Four 32-bit column words as one 128-bit big-endian block."""
    w0, w1, w2, w3 = words
    return (w0 << 96) | (w1 << 64) | (w2 << 32) | w3


class AES128:
    """AES with a 128-bit key; 10 rounds, 16-byte blocks."""

    block_size = 16
    key_size = 16
    rounds = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise CryptoError(f"AES-128 key must be 16 bytes, got {len(key)}")
        words = self._expand_key(key)
        # Round keys 0 and 10 as 128-bit ints, rounds 1-9 as words.
        # Decryption runs the equivalent inverse cipher: the same outer
        # keys swapped, rounds 1-9 reversed with InvMixColumns applied.
        self._key_first = _join(words[0:4])
        self._key_last = _join(words[40:44])
        self._enc_rounds = tuple(words[4:40])
        self._dec_rounds = tuple(
            _inv_mix_word(word)
            for r in range(self.rounds - 1, 0, -1)
            for word in words[4 * r : 4 * r + 4]
        )

    # -- key schedule ------------------------------------------------------

    @classmethod
    def _expand_key(cls, key: bytes) -> list:
        """Expand the cipher key into 44 big-endian 32-bit words."""
        words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
        for i in range(4, 4 * (cls.rounds + 1)):
            temp = words[i - 1]
            if i % 4 == 0:
                # SubWord(RotWord(temp)) ^ Rcon
                temp = (
                    (_SBOX[(temp >> 16) & 0xFF] << 24)
                    | (_SBOX[(temp >> 8) & 0xFF] << 16)
                    | (_SBOX[temp & 0xFF] << 8)
                    | _SBOX[temp >> 24]
                ) ^ (_RCON[i // 4 - 1] << 24)
            words.append(words[i - 4] ^ temp)
        return words

    # -- block core ----------------------------------------------------------

    def _encrypt_int(self, block: int) -> int:
        """Encrypt one 128-bit block held as an int."""
        te0, te1, te2, te3 = _TE
        sbox = _SBOX
        rk = self._enc_rounds
        block ^= self._key_first
        s0 = block >> 96
        s1 = (block >> 64) & _MASK32
        s2 = (block >> 32) & _MASK32
        s3 = block & _MASK32
        for i in range(0, 36, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[i],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[i + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[i + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[i + 3],
            )
        # Final round: SubBytes + ShiftRows, no MixColumns.
        return self._key_last ^ int.from_bytes(bytes((
            sbox[s0 >> 24], sbox[(s1 >> 16) & 0xFF], sbox[(s2 >> 8) & 0xFF], sbox[s3 & 0xFF],
            sbox[s1 >> 24], sbox[(s2 >> 16) & 0xFF], sbox[(s3 >> 8) & 0xFF], sbox[s0 & 0xFF],
            sbox[s2 >> 24], sbox[(s3 >> 16) & 0xFF], sbox[(s0 >> 8) & 0xFF], sbox[s1 & 0xFF],
            sbox[s3 >> 24], sbox[(s0 >> 16) & 0xFF], sbox[(s1 >> 8) & 0xFF], sbox[s2 & 0xFF],
        )), "big")

    def _decrypt_int(self, block: int) -> int:
        """Decrypt one 128-bit block held as an int."""
        td0, td1, td2, td3 = _TD
        ibox = _INV_SBOX
        rk = self._dec_rounds
        block ^= self._key_last
        s0 = block >> 96
        s1 = (block >> 64) & _MASK32
        s2 = (block >> 32) & _MASK32
        s3 = block & _MASK32
        for i in range(0, 36, 4):
            s0, s1, s2, s3 = (
                td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF]
                ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ rk[i],
                td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF]
                ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ rk[i + 1],
                td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF]
                ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ rk[i + 2],
                td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF]
                ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ rk[i + 3],
            )
        # Final round: InvShiftRows + InvSubBytes, no InvMixColumns.
        return self._key_first ^ int.from_bytes(bytes((
            ibox[s0 >> 24], ibox[(s3 >> 16) & 0xFF], ibox[(s2 >> 8) & 0xFF], ibox[s1 & 0xFF],
            ibox[s1 >> 24], ibox[(s0 >> 16) & 0xFF], ibox[(s3 >> 8) & 0xFF], ibox[s2 & 0xFF],
            ibox[s2 >> 24], ibox[(s1 >> 16) & 0xFF], ibox[(s0 >> 8) & 0xFF], ibox[s3 & 0xFF],
            ibox[s3 >> 24], ibox[(s2 >> 16) & 0xFF], ibox[(s1 >> 8) & 0xFF], ibox[s0 & 0xFF],
        )), "big")

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return self._encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        return self._decrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    # -- modes ----------------------------------------------------------------

    def encrypt_cbc(self, plaintext: bytes, iv: bytes) -> bytes:
        """CBC-encrypt with PKCS#7 padding; returns ciphertext (no IV prefix)."""
        if len(iv) != 16:
            raise CryptoError("IV must be 16 bytes")
        data = pkcs7_pad(plaintext, 16)
        encrypt = self._encrypt_int
        previous = int.from_bytes(iv, "big")
        out = bytearray()
        for start in range(0, len(data), 16):
            previous = encrypt(int.from_bytes(data[start : start + 16], "big") ^ previous)
            out += previous.to_bytes(16, "big")
        return bytes(out)

    def decrypt_cbc(self, ciphertext: bytes, iv: bytes) -> bytes:
        """CBC-decrypt and strip PKCS#7 padding.

        Raises :class:`BadPaddingError` when the key was wrong -- this is
        the observable failure of forced-execution attacks on bombs.
        """
        if len(iv) != 16:
            raise CryptoError("IV must be 16 bytes")
        if len(ciphertext) % 16 != 0 or not ciphertext:
            raise CryptoError("ciphertext length must be a positive multiple of 16")
        decrypt = self._decrypt_int
        previous = int.from_bytes(iv, "big")
        out = bytearray()
        for start in range(0, len(ciphertext), 16):
            block = int.from_bytes(ciphertext[start : start + 16], "big")
            out += (decrypt(block) ^ previous).to_bytes(16, "big")
            previous = block
        return pkcs7_unpad(bytes(out), 16)

    def encrypt_ctr(self, data: bytes, nonce: bytes) -> bytes:
        """CTR mode keystream XOR (encryption == decryption)."""
        if len(nonce) != 8:
            raise CryptoError("CTR nonce must be 8 bytes")
        encrypt = self._encrypt_int
        counter_base = int.from_bytes(nonce, "big") << 64
        out = bytearray()
        for counter, start in enumerate(range(0, len(data), 16)):
            chunk = data[start : start + 16]
            # A short final chunk uses the leading bytes of the keystream.
            keystream = encrypt(counter_base | counter) >> (8 * (16 - len(chunk)))
            out += (int.from_bytes(chunk, "big") ^ keystream).to_bytes(len(chunk), "big")
        return bytes(out)


def pkcs7_pad(data: bytes, block_size: int) -> bytes:
    """Append PKCS#7 padding so ``len(result)`` is a multiple of block_size."""
    if not 1 <= block_size <= 255:
        raise CryptoError("block size out of range")
    pad = block_size - (len(data) % block_size)
    return data + bytes([pad] * pad)


def pkcs7_unpad(data: bytes, block_size: int) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size != 0:
        raise BadPaddingError("data length is not a padded multiple of the block size")
    pad = data[-1]
    if pad < 1 or pad > block_size:
        raise BadPaddingError(f"invalid padding byte {pad:#x}")
    if data[-pad:] != bytes([pad] * pad):
        raise BadPaddingError("padding bytes are inconsistent")
    return data[:-pad]
