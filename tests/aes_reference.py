"""Byte-oriented FIPS-197 AES-128: the reference the table cipher is diffed against.

Each round step works on a 16-byte column-major state exactly as the
standard writes it (SubBytes, ShiftRows, MixColumns, AddRoundKey), so a
bug in the word-oriented T-table cipher of :mod:`repro.crypto.aes`
cannot hide behind a symmetric mistake in both directions.  Test-only:
it is several times slower than the production cipher.
"""

from repro.crypto.aes import _INV_SBOX, _MUL, _RCON, _SBOX, pkcs7_pad, pkcs7_unpad

ROUNDS = 10


def expand_key(key: bytes) -> list:
    """Expand the cipher key into 11 round keys of 16 bytes each."""
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [_SBOX[b] for b in temp]  # SubWord
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    round_keys = []
    for r in range(ROUNDS + 1):
        flat = []
        for w in words[4 * r : 4 * r + 4]:
            flat.extend(w)
        round_keys.append(flat)
    return round_keys


def add_round_key(state: list, round_key: list) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def sub_bytes(state: list, box: tuple) -> None:
    for i in range(16):
        state[i] = box[state[i]]


def shift_rows(state: list) -> list:
    # State is column-major: byte (row r, col c) lives at 4*c + r.
    out = [0] * 16
    for c in range(4):
        for r in range(4):
            out[4 * c + r] = state[4 * ((c + r) % 4) + r]
    return out


def inv_shift_rows(state: list) -> list:
    out = [0] * 16
    for c in range(4):
        for r in range(4):
            out[4 * ((c + r) % 4) + r] = state[4 * c + r]
    return out


def mix_columns(state: list) -> list:
    mul2, mul3 = _MUL[2], _MUL[3]
    out = [0] * 16
    for c in range(0, 16, 4):
        a, b, d, e = state[c], state[c + 1], state[c + 2], state[c + 3]
        out[c] = mul2[a] ^ mul3[b] ^ d ^ e
        out[c + 1] = a ^ mul2[b] ^ mul3[d] ^ e
        out[c + 2] = a ^ b ^ mul2[d] ^ mul3[e]
        out[c + 3] = mul3[a] ^ b ^ d ^ mul2[e]
    return out


def inv_mix_columns(state: list) -> list:
    mul9, mul11, mul13, mul14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    out = [0] * 16
    for c in range(0, 16, 4):
        a, b, d, e = state[c], state[c + 1], state[c + 2], state[c + 3]
        out[c] = mul14[a] ^ mul11[b] ^ mul13[d] ^ mul9[e]
        out[c + 1] = mul9[a] ^ mul14[b] ^ mul11[d] ^ mul13[e]
        out[c + 2] = mul13[a] ^ mul9[b] ^ mul14[d] ^ mul11[e]
        out[c + 3] = mul11[a] ^ mul13[b] ^ mul9[d] ^ mul14[e]
    return out


def encrypt_block(key: bytes, block: bytes) -> bytes:
    round_keys = expand_key(key)
    state = list(block)
    add_round_key(state, round_keys[0])
    for r in range(1, ROUNDS):
        sub_bytes(state, _SBOX)
        state = shift_rows(state)
        state = mix_columns(state)
        add_round_key(state, round_keys[r])
    sub_bytes(state, _SBOX)
    state = shift_rows(state)
    add_round_key(state, round_keys[ROUNDS])
    return bytes(state)


def decrypt_block(key: bytes, block: bytes) -> bytes:
    round_keys = expand_key(key)
    state = list(block)
    add_round_key(state, round_keys[ROUNDS])
    for r in range(ROUNDS - 1, 0, -1):
        state = inv_shift_rows(state)
        sub_bytes(state, _INV_SBOX)
        add_round_key(state, round_keys[r])
        state = inv_mix_columns(state)
    state = inv_shift_rows(state)
    sub_bytes(state, _INV_SBOX)
    add_round_key(state, round_keys[0])
    return bytes(state)


def encrypt_cbc(key: bytes, plaintext: bytes, iv: bytes) -> bytes:
    """CBC with PKCS#7 padding, block by block as SP 800-38A defines it."""
    data = pkcs7_pad(plaintext, 16)
    previous = iv
    out = bytearray()
    for start in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[start : start + 16], previous))
        previous = encrypt_block(key, block)
        out.extend(previous)
    return bytes(out)


def decrypt_cbc(key: bytes, ciphertext: bytes, iv: bytes) -> bytes:
    previous = iv
    out = bytearray()
    for start in range(0, len(ciphertext), 16):
        block = ciphertext[start : start + 16]
        out.extend(a ^ b for a, b in zip(decrypt_block(key, block), previous))
        previous = block
    return pkcs7_unpad(bytes(out), 16)
