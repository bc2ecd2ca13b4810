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
from typing import List, Tuple

from repro.dex.instructions import Instr
from repro.dex.model import DexClass, DexField, DexFile, DexMethod
from repro.dex.opcodes import Op
from repro.errors import DexError, DexFormatError

def _unpack_from(fmt: str, blob: bytes, offset: int):
    """struct.unpack_from that fails with the library's own error."""
    try:
        return struct.unpack_from(fmt, blob, offset)
    except struct.error as exc:
        raise DexFormatError(f"truncated dex blob: {exc}") from None


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


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _unpack_str(blob: bytes, offset: int) -> Tuple[str, int]:
    if offset + 4 > len(blob):
        raise DexFormatError("truncated string length")
    (length,) = _unpack_from(">I", blob, offset)
    offset += 4
    if offset + length > len(blob):
        raise DexFormatError("truncated string body")
    try:
        text = blob[offset : offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DexFormatError(f"string is not UTF-8: {exc}") from None
    return text, offset + length


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


def _unpack_value(blob: bytes, offset: int):
    if offset >= len(blob):
        raise DexFormatError("truncated value tag")
    tag = blob[offset : offset + 1]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        if offset + 8 > len(blob):
            raise DexFormatError("truncated int")
        (value,) = _unpack_from(">q", blob, offset)
        return value, offset + 8
    if tag == _TAG_BIGINT:
        (length,) = _unpack_from(">I", blob, offset)
        offset += 4
        raw = blob[offset : offset + length]
        if len(raw) != length:
            raise DexFormatError("truncated bigint")
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == _TAG_STR:
        return _unpack_str(blob, offset)
    if tag == _TAG_BYTES:
        (length,) = _unpack_from(">I", blob, offset)
        offset += 4
        raw = blob[offset : offset + length]
        if len(raw) != length:
            raise DexFormatError("truncated bytes")
        return raw, offset + length
    if tag == _TAG_TABLE:
        (count,) = _unpack_from(">H", blob, offset)
        offset += 2
        table = {}
        for _ in range(count):
            if blob[offset : offset + 1] == _TAG_TABLE:
                raise DexFormatError("switch-table key is itself a table")
            key, offset = _unpack_value(blob, offset)
            label, offset = _unpack_str(blob, offset)
            table[key] = label
        return table, offset
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


def _unpack_instr(blob: bytes, offset: int) -> Tuple[Instr, int]:
    if offset + 2 > len(blob):
        raise DexFormatError("truncated instruction header")
    code, flags = _unpack_from(">BB", blob, offset)
    offset += 2
    try:
        op = _CODE_TO_OP[code]
    except KeyError:
        raise DexFormatError(f"unknown opcode byte {code:#x}") from None
    dst = a = b = None
    if flags & _FLAG_DST:
        (dst,) = _unpack_from(">H", blob, offset)
        offset += 2
    if flags & _FLAG_A:
        (a,) = _unpack_from(">H", blob, offset)
        offset += 2
    if flags & _FLAG_B:
        (b,) = _unpack_from(">H", blob, offset)
        offset += 2
    value = None
    if flags & _FLAG_VALUE:
        value, offset = _unpack_value(blob, offset)
    target = None
    if flags & _FLAG_TARGET:
        target, offset = _unpack_str(blob, offset)
    args: Tuple[int, ...] = ()
    if flags & _FLAG_ARGS:
        (count,) = _unpack_from(">B", blob, offset)
        offset += 1
        regs: List[int] = []
        for _ in range(count):
            (reg,) = _unpack_from(">H", blob, offset)
            offset += 2
            regs.append(reg)
        args = tuple(regs)
    return Instr(op, dst=dst, a=a, b=b, value=value, target=target, args=args), offset


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
    (version,) = _unpack_from(">H", blob, 4)
    if version not in (VERSION, _LEGACY_VERSION):
        raise DexFormatError(f"unsupported version {version}")
    if version >= 2:
        if len(blob) < 8 + _CRC_SIZE:
            raise DexFormatError("truncated dex blob: missing crc footer")
        (expected_crc,) = _unpack_from(">I", blob, len(blob) - _CRC_SIZE)
        blob = blob[: len(blob) - _CRC_SIZE]
        if zlib.crc32(blob) != expected_crc:
            raise DexFormatError("crc mismatch (corrupt dex blob)")
    try:
        return _unpack_classes(blob)
    except DexFormatError:
        raise
    except DexError as exc:
        raise DexFormatError(f"invalid dex structure: {exc}") from None


def _unpack_classes(blob: bytes) -> DexFile:
    """Parse the class section of a footer-stripped blob."""
    (class_count,) = _unpack_from(">H", blob, 6)
    offset = 8
    dex = DexFile()
    for _ in range(class_count):
        name, offset = _unpack_str(blob, offset)
        cls = DexClass(name=name)
        (field_count,) = _unpack_from(">H", blob, offset)
        offset += 2
        for _ in range(field_count):
            field_name, offset = _unpack_str(blob, offset)
            if offset >= len(blob):
                raise DexFormatError("truncated field static flag")
            static = blob[offset] == 1
            offset += 1
            initial, offset = _unpack_value(blob, offset)
            cls.add_field(DexField(name=field_name, static=static, initial=initial))
        (method_count,) = _unpack_from(">H", blob, offset)
        offset += 2
        for _ in range(method_count):
            method_name, offset = _unpack_str(blob, offset)
            params, registers, instr_count = _unpack_from(">HHI", blob, offset)
            offset += 8
            instructions: List[Instr] = []
            for _ in range(instr_count):
                instr, offset = _unpack_instr(blob, offset)
                instructions.append(instr)
            cls.add_method(
                DexMethod(
                    name=method_name,
                    class_name=name,
                    params=params,
                    registers=registers,
                    instructions=instructions,
                )
            )
        dex.add_class(cls)
    if offset != len(blob):
        raise DexFormatError(f"{len(blob) - offset} trailing bytes after dex payload")
    return dex
