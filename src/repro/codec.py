"""Bounded reads over untrusted binary blobs.

Every binary decoder in the library reads bytes somebody else wrote: a
bomb payload an attacker force-decrypted, a report from a device nobody
trusts, a container that may itself be tampered with.  :class:`Reader`
is the one place that decides how such a blob fails: a field that runs
past the end, text that is not UTF-8 or bytes left over raise the
codec's own declared error (``DexFormatError``, ``WireError``,
``ApkError``, ``CryptoError``), so a decoder is a straight run of reads
with no offsets, bounds checks or ``struct.error`` wrappers of its own.
"""

from __future__ import annotations

import struct
from typing import Callable

U8 = struct.Struct(">B")
U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")


def _fixed(fmt: struct.Struct):
    """A :class:`Reader` method reading one ``fmt`` scalar."""
    size, unpack_from = fmt.size, fmt.unpack_from

    def read(self, what: str = "field") -> int:
        offset = self.offset
        try:
            (value,) = unpack_from(self.blob, offset)
        except struct.error:
            raise self._short(what) from None
        self.offset = offset + size
        return value

    return read


class Reader:
    """A cursor over ``blob`` whose every failure is ``error(message)``.

    ``what`` names the field in the message: "``what`` is truncated at
    byte N" (N is the blob's length), "``what`` is not UTF-8" and
    "K trailing bytes after ``what``".
    """

    __slots__ = ("blob", "offset", "error")

    def __init__(
        self, blob: bytes, error: Callable[[str], Exception], offset: int = 0
    ) -> None:
        self.blob = blob
        self.offset = offset
        self.error = error

    u8 = _fixed(U8)
    u16 = _fixed(U16)
    u32 = _fixed(U32)
    u64 = _fixed(U64)

    def unpack(self, fmt: struct.Struct, what: str = "field") -> tuple:
        """The values of one precompiled ``fmt`` at the cursor."""
        offset = self.offset
        try:
            values = fmt.unpack_from(self.blob, offset)
        except struct.error:
            raise self._short(what) from None
        self.offset = offset + fmt.size
        return values

    def take(self, count: int, what: str = "field") -> bytes:
        """The next ``count`` bytes."""
        offset = self.offset
        end = offset + count
        if end > len(self.blob):
            raise self._short(what)
        self.offset = end
        return self.blob[offset:end]

    def text(self, count: int, what: str = "field") -> str:
        """The next ``count`` bytes as UTF-8 text."""
        try:
            return self.take(count, what).decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{what} is not UTF-8") from None

    def rest(self) -> bytes:
        """Every byte left after the cursor."""
        offset, self.offset = self.offset, len(self.blob)
        return self.blob[offset:]

    def end(self, what: str = "payload") -> None:
        """Fail unless the cursor is at the end of the blob."""
        left = len(self.blob) - self.offset
        if left:
            raise self.error(f"{left} trailing bytes after {what}")

    def _short(self, what: str) -> Exception:
        return self.error(f"{what} is truncated at byte {len(self.blob)}")
