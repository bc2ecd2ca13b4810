"""Binary serialization of :class:`DexFile` blobs.

The blob plays the role of ``classes.dex``: it is what the APK carries,
what MANIFEST.MF digests cover, what BombDroid encrypts as a bomb
payload, and what the VM's class loader loads dynamically at runtime
(Section 7.5: "the string will be decrypted and stored in a separated
.dex file, which is then loaded and invoked").

Format (all integers big-endian)::

    magic "RDEX" | u16 version
    u16 class count
      class: str name | u16 #fields | fields | u16 #methods | methods
      field: str name | u8 static | value
      method: str name | u16 params | u16 registers | u32 #instrs | instrs
      instr: u8 opcode | u8 flags | [u16 dst] [u16 a] [u16 b]
             [value] [str target] [u8 #args, u16 each]
    u32 crc32 of everything before it      (version >= 2)

Strings are u32-length-prefixed UTF-8.  Values are type-tagged
(null/bool/int/str/bytes/switch-table).

Version 2 appends a crc32 footer so that storage rot (a bit flip in a
cached payload, say) is always detected as :class:`DexFormatError`
rather than parsing into a structurally valid but wrong program.
Version 1 blobs (no footer) are still accepted.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

from repro.codec import Reader
from repro.dex.instructions import Instr
from repro.dex.model import DexClass, DexField, DexFile, DexMethod
from repro.dex.opcodes import Op
from repro.errors import DexError, DexFormatError

MAGIC = b"RDEX"
VERSION = 2
_LEGACY_VERSION = 1
_CRC_SIZE = 4

# Stable opcode numbering derived from definition order of the Op enum.
_OP_TO_CODE = {op: index for index, op in enumerate(Op)}
_CODE_TO_OP = {index: op for op, index in _OP_TO_CODE.items()}

_FLAG_DST = 0x01
_FLAG_A = 0x02
_FLAG_B = 0x04
_FLAG_VALUE = 0x08
_FLAG_TARGET = 0x10
_FLAG_ARGS = 0x20

_TAG_NULL = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BIGINT = b"G"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_TABLE = b"D"

_INT = struct.Struct(">q")
_INSTR_HEAD = struct.Struct(">BB")
_METHOD_HEAD = struct.Struct(">HHI")
#: ``u16`` argument registers, one layout per ``u8`` count.
_ARGS = [struct.Struct(f">{count}H") for count in range(256)]


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _read_str(r: Reader) -> str:
    return r.text(r.u32("string length"), "string")


def _pack_value(value) -> bytes:
    if value is None:
        return _TAG_NULL
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, int):
        if -(2**63) <= value < 2**63:
            return _TAG_INT + struct.pack(">q", value)
        raw = value.to_bytes((value.bit_length() + 15) // 8, "big", signed=True)
        return _TAG_BIGINT + struct.pack(">I", len(raw)) + raw
    if isinstance(value, str):
        return _TAG_STR + _pack_str(value)
    if isinstance(value, bytes):
        return _TAG_BYTES + struct.pack(">I", len(value)) + value
    if isinstance(value, dict):
        out = [_TAG_TABLE, struct.pack(">H", len(value))]
        for key, label in value.items():
            out.append(_pack_value(key))
            out.append(_pack_str(label))
        return b"".join(out)
    raise DexFormatError(f"cannot serialize value of type {type(value).__name__}")


def _read_value(r: Reader):
    tag = r.take(1, "value tag")
    if tag == _TAG_NULL:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return r.unpack(_INT, "int")[0]
    if tag == _TAG_BIGINT:
        return int.from_bytes(r.take(r.u32("bigint"), "bigint"), "big", signed=True)
    if tag == _TAG_STR:
        return _read_str(r)
    if tag == _TAG_BYTES:
        return r.take(r.u32("bytes"), "bytes")
    if tag == _TAG_TABLE:
        table = {}
        for _ in range(r.u16("switch table")):
            # Refused before parsing, so a chain of nested tables cannot
            # recurse past the interpreter's stack.
            if r.blob[r.offset : r.offset + 1] == _TAG_TABLE:
                raise DexFormatError("switch-table key is itself a table")
            key = _read_value(r)
            table[key] = _read_str(r)
        return table
    raise DexFormatError(f"unknown value tag {tag!r}")


def _pack_instr(instr: Instr) -> bytes:
    flags = 0
    body = b""
    if instr.dst is not None:
        flags |= _FLAG_DST
        body += struct.pack(">H", instr.dst)
    if instr.a is not None:
        flags |= _FLAG_A
        body += struct.pack(">H", instr.a)
    if instr.b is not None:
        flags |= _FLAG_B
        body += struct.pack(">H", instr.b)
    value_blob = b""
    # Note: a CONST null still needs the value flag; use a sentinel check on
    # opcode semantics rather than value truthiness.
    has_value = instr.value is not None or instr.op in (Op.CONST,)
    if has_value:
        flags |= _FLAG_VALUE
        value_blob = _pack_value(instr.value)
    if instr.target is not None:
        flags |= _FLAG_TARGET
        value_blob += _pack_str(instr.target)
    args_blob = b""
    if instr.args:
        flags |= _FLAG_ARGS
        args_blob = struct.pack(">B", len(instr.args)) + b"".join(
            struct.pack(">H", reg) for reg in instr.args
        )
    return struct.pack(">BB", _OP_TO_CODE[instr.op], flags) + body + value_blob + args_blob


def _read_instr(r: Reader) -> Instr:
    code, flags = r.unpack(_INSTR_HEAD, "instruction header")
    op = _CODE_TO_OP.get(code)
    if op is None:
        raise DexFormatError(f"unknown opcode byte {code:#x}")
    return Instr(
        op,
        dst=r.u16("register") if flags & _FLAG_DST else None,
        a=r.u16("register") if flags & _FLAG_A else None,
        b=r.u16("register") if flags & _FLAG_B else None,
        value=_read_value(r) if flags & _FLAG_VALUE else None,
        target=_read_str(r) if flags & _FLAG_TARGET else None,
        args=r.unpack(_ARGS[r.u8("argument count")], "arguments")
        if flags & _FLAG_ARGS
        else (),
    )


def serialize_dex(dex: DexFile) -> bytes:
    """Serialize a DexFile to its binary blob."""
    out: List[bytes] = [MAGIC, struct.pack(">H", VERSION), struct.pack(">H", len(dex.classes))]
    for class_name in sorted(dex.classes):
        cls = dex.classes[class_name]
        out.append(_pack_str(cls.name))
        out.append(struct.pack(">H", len(cls.fields)))
        for field in cls.fields.values():
            out.append(_pack_str(field.name))
            out.append(struct.pack(">B", 1 if field.static else 0))
            out.append(_pack_value(field.initial))
        out.append(struct.pack(">H", len(cls.methods)))
        for method_name in sorted(cls.methods):
            method = cls.methods[method_name]
            out.append(_pack_str(method.name))
            out.append(struct.pack(">HHI", method.params, method.registers, len(method.instructions)))
            for instr in method.instructions:
                out.append(_pack_instr(instr))
    body = b"".join(out)
    return body + struct.pack(">I", zlib.crc32(body))


def deserialize_dex(blob: bytes) -> DexFile:
    """Parse a binary blob back into a DexFile.

    Raises :class:`DexFormatError` on malformed input -- which is what an
    attacker gets when force-decrypting a payload under the wrong key, if
    the PKCS#7 padding happens to validate.  Structural errors the model
    raises (a duplicate class or method, say) are reported the same way.
    """
    if blob[:4] != MAGIC:
        raise DexFormatError("bad magic (not an RDEX blob)")
    version = Reader(blob, DexFormatError, len(MAGIC)).u16("version")
    if version not in (VERSION, _LEGACY_VERSION):
        raise DexFormatError(f"unsupported version {version}")
    if version >= 2:
        if len(blob) < 8 + _CRC_SIZE:
            raise DexFormatError("truncated dex blob: missing crc footer")
        footer = len(blob) - _CRC_SIZE
        expected_crc = Reader(blob, DexFormatError, footer).u32("crc footer")
        blob = blob[:footer]
        if zlib.crc32(blob) != expected_crc:
            raise DexFormatError("crc mismatch (corrupt dex blob)")
    try:
        return _read_classes(Reader(blob, DexFormatError, 6))
    except DexFormatError:
        raise
    except DexError as exc:
        raise DexFormatError(f"invalid dex structure: {exc}") from None


def _read_classes(r: Reader) -> DexFile:
    """Parse the class section of a footer-stripped blob."""
    dex = DexFile()
    for _ in range(r.u16("class count")):
        name = _read_str(r)
        cls = DexClass(name=name)
        for _ in range(r.u16("field count")):
            field_name = _read_str(r)
            static = r.u8("field static flag") == 1
            cls.add_field(DexField(name=field_name, static=static, initial=_read_value(r)))
        for _ in range(r.u16("method count")):
            method_name = _read_str(r)
            params, registers, count = r.unpack(_METHOD_HEAD, "method header")
            cls.add_method(
                DexMethod(
                    name=method_name,
                    class_name=name,
                    params=params,
                    registers=registers,
                    instructions=[_read_instr(r) for _ in range(count)],
                )
            )
        dex.add_class(cls)
    r.end("dex payload")
    return dex
