"""Instruction records and factory helpers.

An :class:`Instr` is a small immutable record.  Fields are used by
opcode convention (documented on :class:`repro.dex.opcodes.Op`):

``dst``     destination register
``a``/``b`` source registers
``value``   literal constant, class/method/field name, or switch table
``target``  branch label name (a string)

Branch targets are *labels*, not offsets, so the instrumenter can splice
instruction sequences without any relocation pass.  ``Label`` is a
pseudo-instruction marking a target; the interpreter skips it and the
serializer keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dex.opcodes import (
    BINOPS,
    CONDITIONAL_BRANCHES,
    LIT_BINOPS,
    Op,
)
from repro.errors import DexError


@dataclass(frozen=True)
class Instr:
    """One bytecode instruction."""

    op: Op
    dst: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    value: object = None
    target: Optional[str] = None
    args: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("dst", "a", "b"):
            reg = getattr(self, name)
            if reg is not None and (not isinstance(reg, int) or reg < 0):
                raise DexError(f"{self.op.value}: register {name}={reg!r} invalid")
        if self.op in CONDITIONAL_BRANCHES or self.op is Op.GOTO:
            if not isinstance(self.target, str):
                raise DexError(f"{self.op.value}: branch needs a label target")

    def reads(self) -> Tuple[int, ...]:
        """Registers this instruction reads (for def-use analysis)."""
        regs = []
        if self.op in (Op.APUT,):
            # APUT reads the stored value (a), the index (b) and the array (dst).
            regs = [self.a, self.b, self.dst]
        else:
            if self.a is not None:
                regs.append(self.a)
            if self.b is not None:
                regs.append(self.b)
        regs.extend(self.args)
        return tuple(r for r in regs if r is not None)

    def writes(self) -> Tuple[int, ...]:
        """Registers this instruction defines."""
        if self.op in (Op.APUT, Op.IPUT, Op.SPUT):
            return ()
        if self.dst is not None:
            return (self.dst,)
        return ()

    def branch_labels(self) -> Tuple[str, ...]:
        """Label names this instruction names as jump targets:
        ``target`` plus a SWITCH's table values."""
        labels = () if self.target is None else (self.target,)
        if self.op is Op.SWITCH:
            labels += tuple(self.value.values())
        return labels

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        from repro.dex.disassembler import format_instr

        return format_instr(self)


def Label(name: str) -> Instr:
    """A branch-target marker pseudo-instruction."""
    if not isinstance(name, str) or not name:
        raise DexError("label name must be a non-empty string")
    return Instr(Op.LABEL, value=name)


# ---------------------------------------------------------------------------
# Factory helpers.  These keep construction typo-safe and are the idiom used
# throughout the instrumenter, templates and tests.
# ---------------------------------------------------------------------------


def const(dst: int, value) -> Instr:
    """Load a literal (int, bool, str, bytes or None) into ``dst``."""
    if value is not None and not isinstance(value, (int, str, bytes)):
        raise DexError(f"unsupported constant type {type(value).__name__}")
    return Instr(Op.CONST, dst=dst, value=value)


def move(dst: int, src: int) -> Instr:
    return Instr(Op.MOVE, dst=dst, a=src)


def binop(op: Op, dst: int, a: int, b: int) -> Instr:
    if op not in BINOPS:
        raise DexError(f"{op.value} is not a register-register binop")
    return Instr(op, dst=dst, a=a, b=b)


def binop_lit(op: Op, dst: int, a: int, literal: int) -> Instr:
    if op not in LIT_BINOPS:
        raise DexError(f"{op.value} is not a register-literal binop")
    return Instr(op, dst=dst, a=a, value=literal)


def goto(target: str) -> Instr:
    return Instr(Op.GOTO, target=target)


def if_eq(a: int, b: int, target: str) -> Instr:
    return Instr(Op.IF_EQ, a=a, b=b, target=target)


def if_ne(a: int, b: int, target: str) -> Instr:
    return Instr(Op.IF_NE, a=a, b=b, target=target)


def if_lt(a: int, b: int, target: str) -> Instr:
    return Instr(Op.IF_LT, a=a, b=b, target=target)


def if_ge(a: int, b: int, target: str) -> Instr:
    return Instr(Op.IF_GE, a=a, b=b, target=target)


def if_gt(a: int, b: int, target: str) -> Instr:
    return Instr(Op.IF_GT, a=a, b=b, target=target)


def if_le(a: int, b: int, target: str) -> Instr:
    return Instr(Op.IF_LE, a=a, b=b, target=target)


def if_eqz(a: int, target: str) -> Instr:
    return Instr(Op.IF_EQZ, a=a, target=target)


def if_nez(a: int, target: str) -> Instr:
    return Instr(Op.IF_NEZ, a=a, target=target)


def switch(a: int, table: dict) -> Instr:
    """Table switch: ``{constant: label}``; no match falls through."""
    if not isinstance(table, dict) or not table:
        raise DexError("switch table must be a non-empty dict")
    for key, label in table.items():
        if not isinstance(key, (int, str)):
            raise DexError(f"switch key {key!r} must be int or str")
        if not isinstance(label, str):
            raise DexError(f"switch target {label!r} must be a label name")
    return Instr(Op.SWITCH, a=a, value=dict(table))


def ret(a: int) -> Instr:
    return Instr(Op.RETURN, a=a)


def ret_void() -> Instr:
    return Instr(Op.RETURN_VOID)


def throw(a: int) -> Instr:
    return Instr(Op.THROW, a=a)


def new_instance(dst: int, class_name: str) -> Instr:
    return Instr(Op.NEW_INSTANCE, dst=dst, value=class_name)


def iget(dst: int, obj: int, field: str) -> Instr:
    return Instr(Op.IGET, dst=dst, a=obj, value=field)


def iput(src: int, obj: int, field: str) -> Instr:
    return Instr(Op.IPUT, a=src, b=obj, value=field)


def sget(dst: int, qualified_field: str) -> Instr:
    if "." not in qualified_field:
        raise DexError(f"static field {qualified_field!r} must be 'Class.field'")
    return Instr(Op.SGET, dst=dst, value=qualified_field)


def sput(src: int, qualified_field: str) -> Instr:
    if "." not in qualified_field:
        raise DexError(f"static field {qualified_field!r} must be 'Class.field'")
    return Instr(Op.SPUT, a=src, value=qualified_field)


def new_array(dst: int, length_reg: int) -> Instr:
    return Instr(Op.NEW_ARRAY, dst=dst, a=length_reg)


def aget(dst: int, arr: int, index: int) -> Instr:
    return Instr(Op.AGET, dst=dst, a=arr, b=index)


def aput(src: int, arr: int, index: int) -> Instr:
    return Instr(Op.APUT, a=src, dst=arr, b=index)


def array_len(dst: int, arr: int) -> Instr:
    return Instr(Op.ARRAY_LEN, dst=dst, a=arr)


def invoke(dst, qualified_method: str, args=()) -> Instr:
    """Call ``Class.method`` (or a framework API like ``android.env.get``).

    ``dst`` may be None for void calls.
    """
    if "." not in qualified_method:
        raise DexError(f"invoke target {qualified_method!r} must be qualified")
    return Instr(Op.INVOKE, dst=dst, value=qualified_method, args=tuple(args))
