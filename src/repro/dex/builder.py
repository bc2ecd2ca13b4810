"""Fluent method builder.

Templates, the corpus generator, and the bomb-payload synthesizer all
assemble instruction lists programmatically; the builder keeps that
readable and allocates registers/labels without manual bookkeeping.

Example::

    b = MethodBuilder("Game", "on_touch", params=2)
    x, y = 0, 1
    tmp = b.reg()
    b.const(tmp, 5)
    b.if_eq(x, tmp, "hit")
    b.ret_void()
    b.label("hit")
    b.sget(tmp, "Game.score")
    b.add_lit(tmp, tmp, 10)
    b.sput(tmp, "Game.score")
    b.ret_void()
    method = b.build()
"""

from __future__ import annotations

from typing import List, Optional

from repro.dex import instructions as ins
from repro.dex.instructions import Instr
from repro.dex.model import DexMethod
from repro.dex.opcodes import Op
from repro.errors import DexError


class MethodBuilder:
    """Accumulates instructions and produces a validated :class:`DexMethod`."""

    def __init__(self, class_name: str, name: str, params: int = 0) -> None:
        self.class_name = class_name
        self.name = name
        self.params = params
        self._next_register = params
        self._instructions: List[Instr] = []
        self._label_counter = 0

    # -- resources -----------------------------------------------------------

    def reg(self) -> int:
        """Allocate a fresh register."""
        register = self._next_register
        self._next_register += 1
        return register

    def regs(self, count: int) -> List[int]:
        """Allocate ``count`` fresh registers."""
        return [self.reg() for _ in range(count)]

    def fresh_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f"{hint}_{self._label_counter}"

    # -- emission ------------------------------------------------------------

    def emit(self, instr: Instr) -> "MethodBuilder":
        self._instructions.append(instr)
        return self

    def label(self, name: str) -> "MethodBuilder":
        return self.emit(ins.Label(name))

    def const(self, dst: int, value) -> "MethodBuilder":
        return self.emit(ins.const(dst, value))

    def const_new(self, value) -> int:
        """Allocate a register, load ``value`` into it, return the register."""
        register = self.reg()
        self.const(register, value)
        return register

    def move(self, dst: int, src: int) -> "MethodBuilder":
        return self.emit(ins.move(dst, src))

    def add(self, dst: int, a: int, b: int) -> "MethodBuilder":
        return self.emit(ins.binop(Op.ADD, dst, a, b))

    def sub(self, dst: int, a: int, b: int) -> "MethodBuilder":
        return self.emit(ins.binop(Op.SUB, dst, a, b))

    def mul(self, dst: int, a: int, b: int) -> "MethodBuilder":
        return self.emit(ins.binop(Op.MUL, dst, a, b))

    def div(self, dst: int, a: int, b: int) -> "MethodBuilder":
        return self.emit(ins.binop(Op.DIV, dst, a, b))

    def rem(self, dst: int, a: int, b: int) -> "MethodBuilder":
        return self.emit(ins.binop(Op.REM, dst, a, b))

    def xor(self, dst: int, a: int, b: int) -> "MethodBuilder":
        return self.emit(ins.binop(Op.XOR, dst, a, b))

    def cmp(self, dst: int, a: int, b: int) -> "MethodBuilder":
        return self.emit(ins.binop(Op.CMP, dst, a, b))

    def add_lit(self, dst: int, a: int, literal: int) -> "MethodBuilder":
        return self.emit(ins.binop_lit(Op.ADD_LIT, dst, a, literal))

    def sub_lit(self, dst: int, a: int, literal: int) -> "MethodBuilder":
        return self.emit(ins.binop_lit(Op.SUB_LIT, dst, a, literal))

    def mul_lit(self, dst: int, a: int, literal: int) -> "MethodBuilder":
        return self.emit(ins.binop_lit(Op.MUL_LIT, dst, a, literal))

    def div_lit(self, dst: int, a: int, literal: int) -> "MethodBuilder":
        return self.emit(ins.binop_lit(Op.DIV_LIT, dst, a, literal))

    def rem_lit(self, dst: int, a: int, literal: int) -> "MethodBuilder":
        return self.emit(ins.binop_lit(Op.REM_LIT, dst, a, literal))

    def and_lit(self, dst: int, a: int, literal: int) -> "MethodBuilder":
        return self.emit(ins.binop_lit(Op.AND_LIT, dst, a, literal))

    def xor_lit(self, dst: int, a: int, literal: int) -> "MethodBuilder":
        return self.emit(ins.binop_lit(Op.XOR_LIT, dst, a, literal))

    def goto(self, target: str) -> "MethodBuilder":
        return self.emit(ins.goto(target))

    def if_eq(self, a: int, b: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_eq(a, b, target))

    def if_ne(self, a: int, b: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_ne(a, b, target))

    def if_lt(self, a: int, b: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_lt(a, b, target))

    def if_ge(self, a: int, b: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_ge(a, b, target))

    def if_gt(self, a: int, b: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_gt(a, b, target))

    def if_le(self, a: int, b: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_le(a, b, target))

    def if_eqz(self, a: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_eqz(a, target))

    def if_nez(self, a: int, target: str) -> "MethodBuilder":
        return self.emit(ins.if_nez(a, target))

    def switch(self, a: int, table: dict) -> "MethodBuilder":
        return self.emit(ins.switch(a, table))

    def ret(self, a: int) -> "MethodBuilder":
        return self.emit(ins.ret(a))

    def ret_void(self) -> "MethodBuilder":
        return self.emit(ins.ret_void())

    def throw(self, a: int) -> "MethodBuilder":
        return self.emit(ins.throw(a))

    def new_instance(self, dst: int, class_name: str) -> "MethodBuilder":
        return self.emit(ins.new_instance(dst, class_name))

    def iget(self, dst: int, obj: int, field: str) -> "MethodBuilder":
        return self.emit(ins.iget(dst, obj, field))

    def iput(self, src: int, obj: int, field: str) -> "MethodBuilder":
        return self.emit(ins.iput(src, obj, field))

    def sget(self, dst: int, qualified_field: str) -> "MethodBuilder":
        return self.emit(ins.sget(dst, qualified_field))

    def sput(self, src: int, qualified_field: str) -> "MethodBuilder":
        return self.emit(ins.sput(src, qualified_field))

    def new_array(self, dst: int, length_reg: int) -> "MethodBuilder":
        return self.emit(ins.new_array(dst, length_reg))

    def aget(self, dst: int, arr: int, index: int) -> "MethodBuilder":
        return self.emit(ins.aget(dst, arr, index))

    def aput(self, src: int, arr: int, index: int) -> "MethodBuilder":
        return self.emit(ins.aput(src, arr, index))

    def array_len(self, dst: int, arr: int) -> "MethodBuilder":
        return self.emit(ins.array_len(dst, arr))

    def invoke(self, dst: Optional[int], qualified_method: str, args=()) -> "MethodBuilder":
        return self.emit(ins.invoke(dst, qualified_method, args))

    # -- finalization ----------------------------------------------------------

    def build(self) -> DexMethod:
        """Validate and return the finished method."""
        if not self._instructions:
            raise DexError(f"{self.class_name}.{self.name}: empty method body")
        method = DexMethod(
            name=self.name,
            class_name=self.class_name,
            params=self.params,
            registers=max(self._next_register, self.params, 1),
            instructions=list(self._instructions),
        )
        method.validate()
        return method
