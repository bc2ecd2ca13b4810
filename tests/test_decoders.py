"""Every public binary decoder fails only with its declared error.

One table lists each decoder that reads untrusted bytes with the error
type it promises; a new decoder joins the table.  Each is fed
derandomized hypothesis bytes (bare and behind the codec's magic),
every truncation of a valid blob, and byte edits plus a cut of one.  A
dex blob gets its crc footer recomputed after each edit, so the edits
reach the class-section parser instead of stopping at the crc check.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.apk import Apk, Manifest, Resources, build_apk
from repro.apk.io import apk_from_bytes, apk_to_bytes
from repro.apk.signing import Certificate
from repro.crypto import RSAKeyPair, RSAPublicKey
from repro.dex import DexFile, assemble, deserialize_dex, serialize_dex
from repro.errors import ApkError, CryptoError, DexFormatError, WireError
from repro.reporting import DetectionReport, encode_report, sign_report
from repro.reporting.durability import (
    decode_record,
    decode_snapshot,
    encode_epoch_record,
    encode_register_record,
    encode_report_record,
    encode_snapshot,
    encode_takedown_record,
)
from repro.reporting.net.framing import (
    MSG_HELLO,
    MSG_RECORD,
    FrameReader,
    HealthStatus,
    MessageReader,
    decode_fence,
    decode_health,
    decode_redirect,
    encode_health,
    encode_message,
    encode_redirect,
)
from repro.reporting.wire import WIRE_MAGIC, canonical_bytes, decode_report

KEY_HEX = "ab" * 20

DEX_SOURCE = """
.class Game
.field score static 0
.field big static 123456789012345678901234567890
.field name static "player one"
.field blob static hex:DEADBEEF
.field flag static true
.field off static false
.field slot
.method on_touch 2
    const r2, 5
    if_eq r0, r2, @hit
    switch r1, {1 -> @a, "s" -> @b, -3 -> @a}
    return_void
@hit:
    invoke r3, java.str.from_int, r2
    invoke _, android.log.i, r3
    return_void
@a:
    const r4, null
    return_void
@b:
    new_instance r5, Game
    iput r4, r5, slot
    throw r5
.end
"""


def _refooted(body: bytes) -> bytes:
    return body + struct.pack(">I", zlib.crc32(body))


def _same(blob: bytes) -> bytes:
    return blob


@dataclass(frozen=True)
class Decoder:
    """One public decoder: what it promises to raise, and blobs it accepts.

    ``frame`` turns a valid (or edited) sample into the decoder's input;
    ``prefixes`` are put before arbitrary bytes so they get past a magic;
    ``returns`` is the type a successful decode must yield.
    """

    decode: Callable[[bytes], object]
    error: type
    valid: Tuple[bytes, ...]
    frame: Callable[[bytes], bytes] = _same
    prefixes: Tuple[bytes, ...] = ()
    returns: type = object


_ATTEST = RSAKeyPair.generate(seed=31)
_REPORT = DetectionReport(
    app_name="Game",
    bomb_id="b007",
    device_id="dev-000000042",
    observed_key_hex=KEY_HEX,
    timestamp=123.5,
    nonce=0xDEADBEEFCAFE,
)
_FRAME = encode_report(sign_report(_REPORT, _ATTEST))
_APK = build_apk(
    assemble(".class A\n.method on_key 1\nreturn_void\n.end"),
    Resources(
        strings={"app_name": "Demo", "note": "hello <world> & \"friends\""},
        app_name="Demo",
        author="dev",
        assets={"data.bin": b"\x00\x01\x02" * 100},
    ),
    RSAKeyPair.generate(seed=21),
)
_SNAPSHOT = encode_snapshot(
    {"clock": 9.5, "epoch": 2, "apps": [{
        "name": "Game", "key": KEY_HEX,
        "takedown_key": "cd" * 20, "takedown_ts": 7.25,
        "shards": [{
            "nonces": [("dev-1", 17), ("dev-2", 2**63)],
            "queue": [canonical_bytes(_REPORT)],
            "windows": [("cd" * 20, [(1.5, "dev-1"), (2.5, "dev-2")])],
        }],
    }]}
)
_HEALTH = encode_health(HealthStatus(epoch=3, role="fenced", endpoint="h:9"))
_REDIRECT = encode_redirect(2, "127.0.0.1:9999")
_WIRE = (WIRE_MAGIC,)

#: Every public binary decoder and the one error it may raise.
DECODERS = {
    "deserialize_dex": Decoder(
        deserialize_dex, DexFormatError,
        valid=(serialize_dex(assemble(DEX_SOURCE))[:-4],),
        frame=_refooted,
        prefixes=(b"RDEX", b"RDEX\x00\x02"),
        returns=DexFile,
    ),
    "apk_from_bytes": Decoder(
        apk_from_bytes, ApkError, valid=(apk_to_bytes(_APK),), prefixes=(b"RAPK",),
        returns=Apk,
    ),
    "Manifest.parse": Decoder(
        Manifest.parse, ApkError, valid=(_APK.manifest.serialize(),), returns=Manifest
    ),
    "Certificate.parse": Decoder(
        Certificate.parse, ApkError, valid=(_APK.cert.serialize(),), returns=Certificate
    ),
    "RSAPublicKey.from_bytes": Decoder(
        RSAPublicKey.from_bytes, CryptoError, valid=(_ATTEST.public.to_bytes(),),
        returns=RSAPublicKey,
    ),
    "decode_report": Decoder(decode_report, WireError, valid=(_FRAME,), prefixes=_WIRE),
    "decode_record": Decoder(
        decode_record, WireError,
        valid=(
            encode_report_record("Game", _REPORT),
            encode_takedown_record("Game", KEY_HEX, 12.5),
            encode_register_record("Game", KEY_HEX),
            encode_epoch_record(3),
        ),
        prefixes=_WIRE,
    ),
    "decode_snapshot": Decoder(
        decode_snapshot, WireError, valid=(_SNAPSHOT,), prefixes=_WIRE
    ),
    "decode_health": Decoder(decode_health, WireError, valid=(_HEALTH,), prefixes=_WIRE),
    "decode_redirect": Decoder(
        decode_redirect, WireError, valid=(_REDIRECT,), prefixes=_WIRE
    ),
    "decode_fence": Decoder(decode_fence, WireError, valid=(_REDIRECT,), prefixes=_WIRE),
    "FrameReader.feed": Decoder(
        lambda blob: FrameReader().feed(blob), WireError, valid=(_FRAME,), prefixes=_WIRE
    ),
    "MessageReader.feed": Decoder(
        lambda blob: MessageReader().feed(blob), WireError,
        valid=(
            encode_message(MSG_HELLO, b"\x04"),
            encode_message(MSG_RECORD, b"\x00" + encode_register_record("G", KEY_HEX)),
        ),
    ),
}

_NAMES = sorted(DECODERS)
_FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


def _only_declared(case: Decoder, blob: bytes) -> None:
    try:
        result = case.decode(blob)
    except case.error:
        return
    assert isinstance(result, case.returns)


@pytest.mark.parametrize("name", _NAMES)
def test_valid_samples_decode(name):
    # The fuzzing below starts from these, so they must be accepted.
    case = DECODERS[name]
    for sample in case.valid:
        assert case.decode(case.frame(sample)) is not None


@pytest.mark.parametrize("name", _NAMES)
def test_every_truncation_raises_only_the_declared_error(name):
    case = DECODERS[name]
    for sample in case.valid:
        for cut in range(len(sample)):
            _only_declared(case, case.frame(sample[:cut]))


@pytest.mark.parametrize("name", _NAMES)
@_FUZZ
@given(data=st.binary(max_size=96))
def test_arbitrary_bytes_raise_only_the_declared_error(name, data):
    case = DECODERS[name]
    _only_declared(case, data)
    for prefix in case.prefixes:
        _only_declared(case, prefix + data)
        _only_declared(case, case.frame(prefix + data))


@pytest.mark.parametrize("name", _NAMES)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**16)
            | st.integers(min_value=0, max_value=64),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=4,
    ),
    cut=st.none() | st.integers(min_value=0),
)
def test_edited_valid_blob_raises_only_the_declared_error(name, edits, cut):
    case = DECODERS[name]
    for sample in case.valid:
        blob = bytearray(sample)
        for pos, byte in edits:
            blob[pos % len(blob)] = byte
        if cut is not None:
            del blob[cut % len(blob) :]
        _only_declared(case, case.frame(bytes(blob)))
