"""The reference interpreter: the pre-dispatch-table execution loop.

This is the original decode-as-you-go register-machine loop, kept
verbatim (modulo the :class:`~repro.vm.sessions.ExecutionContext`
threading every entry point uses, and CMP / SWITCH raising VMCrash
instead of leaking Python's TypeError on unordered or unhashable
operands) as the *semantic oracle*:

* the differential test suite executes the full instrumented corpus on
  both interpreters and asserts bit-identical results -- return values,
  instruction counts, bomb stats, containment trips, tracer streams;
* the VM dispatch benchmark reports the dispatch-table interpreter's
  speedup against this loop.

Test-only.  :class:`ReferenceInterpreter` subclasses
:class:`repro.vm.interpreter.Interpreter` and overrides only
:meth:`execute`, so payload frames (``execute_payload``) run through the
same loop; :func:`reference_runtime` builds a runtime that uses it.  It
intentionally has no compiled-body cache and no inline caches: every
step re-decodes, every branch resolves through the
label map, every INVOKE probes the method table.
"""

from __future__ import annotations

from typing import List

from repro.dex.model import DexMethod
from repro.dex.opcodes import Op
from repro.errors import BudgetExhausted, VMCrash
from repro.vm.dispatch import _COMPARES, _ZERO_TESTS, _cmp_unordered, _switch_unhashable
from repro.vm.interpreter import MAX_CALL_DEPTH, Interpreter
from repro.vm.runtime import Runtime
from repro.vm.sessions import ExecutionContext
from repro.vm.values import Instance, require_int, to_int32


class ReferenceInterpreter(Interpreter):
    """Executes methods by direct interpretation (no compilation)."""

    def execute(self, method: DexMethod, args: List, ctx: ExecutionContext, depth: int = 0):
        budget = ctx.budget
        if depth > MAX_CALL_DEPTH:
            raise VMCrash(f"call depth exceeded at {method.qualified_name}")
        if len(args) != method.params:
            raise VMCrash(
                f"{method.qualified_name} takes {method.params} args, got {len(args)}"
            )
        registers: List = [None] * method.registers
        registers[: len(args)] = args
        instructions = method.instructions
        labels = method.label_map()
        runtime = self._runtime
        tracer = runtime.tracer
        pc = 0
        count = len(instructions)

        while pc < count:
            instr = instructions[pc]
            op = instr.op
            if op is Op.LABEL:
                pc += 1
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExhausted(f"instruction budget exhausted in {method.qualified_name}")
            runtime.cost_units += 1
            if tracer is not None:
                tracer.on_instr(method, pc, instr)

            if op is Op.CONST:
                registers[instr.dst] = instr.value
            elif op is Op.MOVE:
                registers[instr.dst] = registers[instr.a]
            elif op is Op.ADD:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "add") + require_int(registers[instr.b], "add")
                )
            elif op is Op.SUB:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "sub") - require_int(registers[instr.b], "sub")
                )
            elif op is Op.MUL:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "mul") * require_int(registers[instr.b], "mul")
                )
            elif op is Op.DIV:
                divisor = require_int(registers[instr.b], "div")
                if divisor == 0:
                    raise VMCrash(f"division by zero in {method.qualified_name}@{pc}")
                registers[instr.dst] = to_int32(
                    int(require_int(registers[instr.a], "div") / divisor)
                )
            elif op is Op.REM:
                divisor = require_int(registers[instr.b], "rem")
                if divisor == 0:
                    raise VMCrash(f"remainder by zero in {method.qualified_name}@{pc}")
                dividend = require_int(registers[instr.a], "rem")
                registers[instr.dst] = to_int32(dividend - int(dividend / divisor) * divisor)
            elif op is Op.AND:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "and") & require_int(registers[instr.b], "and")
                )
            elif op is Op.OR:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "or") | require_int(registers[instr.b], "or")
                )
            elif op is Op.XOR:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "xor") ^ require_int(registers[instr.b], "xor")
                )
            elif op is Op.SHL:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "shl")
                    << (require_int(registers[instr.b], "shl") & 31)
                )
            elif op is Op.SHR:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "shr")
                    >> (require_int(registers[instr.b], "shr") & 31)
                )
            elif op is Op.NEG:
                registers[instr.dst] = to_int32(-require_int(registers[instr.a], "neg"))
            elif op is Op.NOT:
                value = registers[instr.a]
                if isinstance(value, bool):
                    registers[instr.dst] = not value
                else:
                    registers[instr.dst] = to_int32(~require_int(value, "not"))
            elif op is Op.CMP:
                left = registers[instr.a]
                right = registers[instr.b]
                try:
                    registers[instr.dst] = (left > right) - (left < right)
                except TypeError:
                    raise _cmp_unordered(left, right) from None
            elif op is Op.ADD_LIT:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "add_lit") + instr.value
                )
            elif op is Op.SUB_LIT:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "sub_lit") - instr.value
                )
            elif op is Op.MUL_LIT:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "mul_lit") * instr.value
                )
            elif op is Op.DIV_LIT:
                if instr.value == 0:
                    raise VMCrash(f"division by zero literal in {method.qualified_name}@{pc}")
                registers[instr.dst] = to_int32(
                    int(require_int(registers[instr.a], "div_lit") / instr.value)
                )
            elif op is Op.REM_LIT:
                if instr.value == 0:
                    raise VMCrash(f"remainder by zero literal in {method.qualified_name}@{pc}")
                dividend = require_int(registers[instr.a], "rem_lit")
                registers[instr.dst] = to_int32(
                    dividend - int(dividend / instr.value) * instr.value
                )
            elif op is Op.AND_LIT:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "and_lit") & instr.value
                )
            elif op is Op.OR_LIT:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "or_lit") | instr.value
                )
            elif op is Op.XOR_LIT:
                registers[instr.dst] = to_int32(
                    require_int(registers[instr.a], "xor_lit") ^ instr.value
                )
            elif op is Op.GOTO:
                pc = labels[instr.target]
                continue
            elif op in _COMPARES:
                taken = _COMPARES[op](registers[instr.a], registers[instr.b])
                if tracer is not None:
                    tracer.on_branch(method, pc, instr, taken)
                if taken:
                    pc = labels[instr.target]
                    continue
            elif op in _ZERO_TESTS:
                taken = _ZERO_TESTS[op](registers[instr.a])
                if tracer is not None:
                    tracer.on_branch(method, pc, instr, taken)
                if taken:
                    pc = labels[instr.target]
                    continue
            elif op is Op.SWITCH:
                key = registers[instr.a]
                if isinstance(key, bool):
                    key = int(key)
                try:
                    target = instr.value.get(key)
                except TypeError:
                    raise _switch_unhashable(key) from None
                if tracer is not None:
                    tracer.on_branch(method, pc, instr, target is not None)
                if target is not None:
                    pc = labels[target]
                    continue
            elif op is Op.RETURN:
                return registers[instr.a]
            elif op is Op.RETURN_VOID:
                return None
            elif op is Op.THROW:
                raise VMCrash(str(registers[instr.a]))
            elif op is Op.NEW_INSTANCE:
                registers[instr.dst] = runtime.new_instance(instr.value)
            elif op is Op.IGET:
                obj = registers[instr.a]
                if not isinstance(obj, Instance):
                    raise VMCrash(f"iget on non-object in {method.qualified_name}@{pc}")
                registers[instr.dst] = obj.get(instr.value)
            elif op is Op.IPUT:
                obj = registers[instr.b]
                if not isinstance(obj, Instance):
                    raise VMCrash(f"iput on non-object in {method.qualified_name}@{pc}")
                obj.put(instr.value, registers[instr.a])
            elif op is Op.SGET:
                registers[instr.dst] = runtime.sget(instr.value)
            elif op is Op.SPUT:
                runtime.sput(instr.value, registers[instr.a])
            elif op is Op.NEW_ARRAY:
                length = require_int(registers[instr.a], "new_array")
                if length < 0 or length > 1 << 24:
                    raise VMCrash(f"bad array length {length}")
                registers[instr.dst] = [None] * length
            elif op is Op.AGET:
                array = registers[instr.a]
                index = require_int(registers[instr.b], "aget")
                if not isinstance(array, list):
                    raise VMCrash(f"aget on non-array in {method.qualified_name}@{pc}")
                if not 0 <= index < len(array):
                    raise VMCrash(f"array index {index} out of bounds ({len(array)})")
                registers[instr.dst] = array[index]
            elif op is Op.APUT:
                array = registers[instr.dst]
                index = require_int(registers[instr.b], "aput")
                if not isinstance(array, list):
                    raise VMCrash(f"aput on non-array in {method.qualified_name}@{pc}")
                if not 0 <= index < len(array):
                    raise VMCrash(f"array index {index} out of bounds ({len(array)})")
                array[index] = registers[instr.a]
            elif op is Op.ARRAY_LEN:
                array = registers[instr.a]
                if not isinstance(array, list):
                    raise VMCrash(f"array_len on non-array in {method.qualified_name}@{pc}")
                registers[instr.dst] = len(array)
            elif op is Op.INVOKE:
                call_args = [registers[r] for r in instr.args]
                if tracer is not None:
                    tracer.on_invoke(instr.value, call_args)
                target = runtime.find_method(instr.value)
                if target is not None:
                    result = self.execute(target, call_args, ctx, depth + 1)
                else:
                    result = runtime.framework.call(instr.value, call_args, ctx)
                if instr.dst is not None:
                    registers[instr.dst] = result
            elif op is Op.NOP:
                pass
            else:  # pragma: no cover - unreachable with a complete ISA
                raise VMCrash(f"unimplemented opcode {op!r}")
            pc += 1

        raise VMCrash(f"{method.qualified_name}: control fell off the end of the method")


def reference_runtime(dex, **kw) -> Runtime:
    """A :class:`Runtime` whose interpreter is the reference loop."""
    runtime = Runtime(dex, **kw)
    runtime.interpreter = ReferenceInterpreter(runtime)
    return runtime
