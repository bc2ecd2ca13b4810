"""Assembler, disassembler and binary serializer round-trips."""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.dex import (
    assemble,
    assemble_method,
    deserialize_dex,
    disassemble,
    serialize_dex,
)
from repro.dex.assembler import parse_literal
from repro.dex.disassembler import format_literal
from repro.dex.opcodes import Op
from repro.errors import DexError, DexFormatError, VMCrash
from repro.vm import Runtime


FULL_SOURCE = """
.class Game
.field score static 0
.field name static "player one"
.field blob static hex:DEADBEEF
.field flag static true
.field slot
.method on_touch 2
    const r2, 5           # a comment
    if_eq r0, r2, @hit
    switch r1, {1 -> @a, "s" -> @b, -3 -> @a}
    return_void
@hit:
    sget r3, Game.score
    add_lit r3, r3, 10
    sput r3, Game.score
    invoke r4, java.str.from_int, r3
    invoke _, android.log.i, r4
    return_void
@a:
    const r5, "with, comma and \\"quote\\""
    return_void
@b:
    const r6, null
    new_instance r7, Game
    iput r6, r7, slot
    iget r6, r7, slot
    const r8, 3
    new_array r9, r8
    aput r8, r9, r6
    aget r6, r9, r6
    array_len r6, r9
    neg r6, r6
    not r6, r6
    cmp r6, r6, r8
    throw r5
.end
"""


def test_full_roundtrip_text_and_binary():
    dex = assemble(FULL_SOURCE)
    text = disassemble(dex)
    dex2 = assemble(text)
    assert disassemble(dex2) == text
    blob = serialize_dex(dex)
    assert serialize_dex(deserialize_dex(blob)) == blob
    assert disassemble(deserialize_dex(blob)) == text


def test_assemble_method_infers_registers():
    method = assemble_method("const r5, 1\nreturn r5", params=2)
    assert method.registers == 6
    assert method.params == 2


class TestLiterals:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("42", 42),
            ("-7", -7),
            ("0x10", 16),
            ("true", True),
            ("false", False),
            ("null", None),
            ('"hi"', "hi"),
            ('"a\\nb"', "a\nb"),
            ("hex:00FF", b"\x00\xff"),
        ],
    )
    def test_parse(self, token, value):
        assert parse_literal(token) == value

    def test_parse_bad_literal(self):
        with pytest.raises(DexError):
            parse_literal("@nope")

    @given(
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.booleans(),
            st.none(),
            st.text(max_size=40),
            st.binary(max_size=20),
        )
    )
    def test_format_parse_roundtrip(self, value):
        assert parse_literal(format_literal(value)) == value


class TestAssemblerErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(DexError, match="unknown mnemonic"):
            assemble_method("frobnicate r1")

    def test_wrong_operand_count(self):
        with pytest.raises(DexError, match="expects"):
            assemble_method("const r1")

    def test_undefined_label(self):
        with pytest.raises(DexError):
            assemble_method("goto @nowhere")

    def test_unterminated_method(self):
        with pytest.raises(DexError, match="unterminated"):
            assemble(".class A\n.method m 0\nreturn_void\n")

    def test_field_outside_class(self):
        with pytest.raises(DexError):
            assemble(".field x static 0")

    def test_line_numbers_in_errors(self):
        with pytest.raises(DexError, match="line 3"):
            assemble(".class A\n.method m 0\nbogus r1\nreturn_void\n.end")


class TestSerializerErrors:
    def test_bad_magic(self):
        with pytest.raises(DexFormatError, match="magic"):
            deserialize_dex(b"NOPE" + b"\x00" * 10)

    def test_truncated_blob(self):
        blob = serialize_dex(assemble(".class A\n.method m 0\nreturn_void\n.end"))
        with pytest.raises(DexFormatError):
            deserialize_dex(blob[:-3])

    def test_trailing_garbage(self):
        # With the v2 crc footer, appended junk shifts the footer and is
        # diagnosed as corruption before the parser ever runs.
        blob = serialize_dex(assemble(".class A\n.method m 0\nreturn_void\n.end"))
        with pytest.raises(DexFormatError, match="crc mismatch"):
            deserialize_dex(blob + b"junk")

    def test_trailing_garbage_legacy_v1(self):
        # Legacy v1 blobs have no footer; the parser still refuses to
        # leave unconsumed bytes behind.
        blob = serialize_dex(assemble(".class A\n.method m 0\nreturn_void\n.end"))
        legacy = blob[:4] + b"\x00\x01" + blob[6:-4]
        assert deserialize_dex(legacy).classes  # v1 still parses
        with pytest.raises(DexFormatError, match="trailing"):
            deserialize_dex(legacy + b"junk")

    def test_bit_flip_always_detected(self):
        blob = serialize_dex(assemble(".class A\n.method m 0\nreturn_void\n.end"))
        for byte_index in range(6, len(blob)):
            corrupted = bytearray(blob)
            corrupted[byte_index] ^= 0x40
            with pytest.raises(DexFormatError):
                deserialize_dex(bytes(corrupted))

    def test_random_bytes_rejected(self):
        with pytest.raises(DexFormatError):
            deserialize_dex(b"RDEX\x00\x01\x00\x05" + b"\xff" * 40)


def _framed(classes: bytes, count: int = 1) -> bytes:
    """A v2 RDEX blob around a hand-built class section, with a valid
    crc footer, so the parser (not the crc check) sees the bytes."""
    body = b"RDEX" + struct.pack(">HH", 2, count) + classes
    return body + struct.pack(">I", zlib.crc32(body))


def _str(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


def _empty_class(name: bytes) -> bytes:
    return _str(name) + struct.pack(">HH", 0, 0)


def _return_void_method(name: bytes) -> bytes:
    return_void = list(Op).index(Op.RETURN_VOID)  # the serializer's numbering
    return _str(name) + struct.pack(">HHI", 0, 0, 1) + struct.pack(">BB", return_void, 0)


class TestSerializerLeaks:
    """Well-framed blobs whose class section the model rejects: every
    failure must surface as DexFormatError, the one type the class
    loader contains."""

    def test_non_utf8_name(self):
        with pytest.raises(DexFormatError, match="UTF-8"):
            deserialize_dex(_framed(_empty_class(b"\xff\xfe")))

    def test_truncated_field_static_flag(self):
        blob = _framed(_str(b"A") + struct.pack(">H", 1) + _str(b"f"))
        with pytest.raises(DexFormatError, match="static flag"):
            deserialize_dex(blob)

    def test_switch_table_key_is_a_table(self):
        nested = b"D" + struct.pack(">H", 1) + b"D" + struct.pack(">H", 0) + _str(b"x")
        field = _str(b"f") + b"\x01" + nested
        blob = _framed(_str(b"A") + struct.pack(">H", 1) + field + struct.pack(">H", 0))
        with pytest.raises(DexFormatError, match="itself a table"):
            deserialize_dex(blob)

    def test_long_chain_of_nested_tables_is_refused_not_recursed(self):
        # 2,000 tables deep would overflow the stack if a key were
        # parsed before it is refused.
        nested = (b"D" + struct.pack(">H", 1)) * 2000 + b"N"
        field = _str(b"f") + b"\x01" + nested
        blob = _framed(_str(b"A") + struct.pack(">H", 1) + field + struct.pack(">H", 0))
        with pytest.raises(DexFormatError, match="itself a table"):
            deserialize_dex(blob)

    def test_duplicate_class(self):
        blob = _framed(_empty_class(b"A") * 2, count=2)
        with pytest.raises(DexFormatError, match="duplicate class"):
            deserialize_dex(blob)

    def test_duplicate_method(self):
        methods = struct.pack(">H", 2) + _return_void_method(b"m") * 2
        blob = _framed(_str(b"A") + struct.pack(">H", 0) + methods)
        with pytest.raises(DexFormatError, match="duplicate method"):
            deserialize_dex(blob)

    def test_class_loader_contains_the_leak(self):
        runtime = Runtime(assemble(".class Host\n.method main 0\nreturn_void\n.end"))
        blob = _framed(_empty_class(b"A") * 2, count=2)
        with pytest.raises(VMCrash) as info:
            runtime.load_blob_method(blob, "A.m", bomb_id="b0")
        assert info.value.site == "dex.deserialize"


_VALID_BLOB = serialize_dex(assemble(FULL_SOURCE))


def _only_format_errors(blob: bytes) -> None:
    try:
        deserialize_dex(blob)
    except DexFormatError:
        pass


def _refooted(body: bytes) -> bytes:
    return body + struct.pack(">I", zlib.crc32(body))


_DERANDOMIZED = settings(max_examples=300, deadline=None, derandomize=True)


@_DERANDOMIZED
@given(st.binary(max_size=96))
def test_arbitrary_bytes_only_raise_format_errors(data):
    _only_format_errors(data)
    _only_format_errors(_refooted(b"RDEX" + struct.pack(">H", 2) + data))


@_DERANDOMIZED
@given(st.lists(st.tuples(st.integers(6, len(_VALID_BLOB) - 5), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_edited_valid_blob_only_raises_format_errors(edits):
    # Byte edits past the magic/version, with the crc fixed up, reach
    # every parser branch a random prefix cannot.
    body = bytearray(_VALID_BLOB[:-4])
    for index, value in edits:
        body[index] = value
    _only_format_errors(_refooted(bytes(body)))
