"""Dispatch-table compilation for the interpreter.

The interpreter's original inner loop re-decoded every instruction on
every execution: one long ``elif`` chain per step, label lookups per
branch, and a method-table probe per INVOKE.  This module compiles a
:class:`~repro.dex.model.DexMethod` once into a :class:`CompiledMethod`
-- a flat table of *step closures*, one per real instruction -- that
the driver loop indexes directly.  Three techniques, all semantics-free:

**Dispatch table.**  Each real instruction becomes a closure
``step(registers, frame) -> next_index`` with its operands, branch
targets (pre-resolved to table indices) and error messages captured at
compile time.  LABEL pseudo-instructions vanish from the compiled
stream (they were free at runtime anyway); the original pc of every
step is retained so tracers observe exactly the pcs they always did.
Tier-2 (:mod:`repro.vm.tier2`) calls the same closures for the opcodes
it does not inline.

**Inline caches.**  Every INVOKE site gets a cache cell (per
interpreter, per compiled body).  App-method targets are cached
unconditionally: :meth:`Runtime.load_dex` forbids shadowing, so a
name -> DexMethod binding can never change once observed.  Framework
targets cache the post-alias handler name and its CALL_COSTS weight,
guarded by the runtime's method-generation counter (a payload that
``load_dex``-es a class whose method name previously resolved to the
framework must win the method-first dispatch, exactly as before).  The
handler *function* is looked up live on every call -- caching it would
blind ``bomb.probe("hooks")`` to handler-table swaps.

**Counted loops.**  A loop whose head is ``if_ge i, n, @out``, followed
by zero or more ``add a, a, i``, then ``add_lit i, i, 1`` (an exact int
1), then a ``goto`` back to the head -- ``i``, ``n`` and every ``a``
distinct registers of the method, ``@out`` past the ``goto`` -- is a
counted loop: the corpus's filler loop and the SLOWDOWN response emit
it.  :func:`compile_method` records one descriptor ``(i, n,
accumulators, L, out)`` per counted loop in :attr:`CompiledMethod.loops`,
and both tiers run it through :func:`counted_exit` whenever control
reaches its head: tier-1 in every untraced frame (the profiler's
counted frames included), tier-2 on entry to a counted simple loop.
A run that starts at the head is fully determined by the registers and
the budget, so tier-1 needs no condition on jumps into the body.  The
closed form is entered only when ``i``, ``n`` and every ``a`` hold an
exact ``int``, ``-2**31 <= i`` and ``n <= 2**31 - 1`` (so ``i`` never
wraps), and the budget before the head's charge is at least ``L*m + 1``
for ``m = n - i if i < n else 0`` trips of ``L`` instructions.  Then
each ``a`` becomes ``wrap32(a + m*i + m*(m-1)//2)``, ``i`` becomes
``n`` (when ``m > 0``), exactly ``L*m + 1`` instructions are charged
and control continues at ``@out``.  In every other case the loop runs
step by step, which owns budget exhaustion and type errors.  Tier-1
charges the ``L*m`` trip instructions to the budget cell at once and
to the frame's cost (and a tiered frame's warmth) when the frame
ends, as if they had run.  A traced frame never takes the closed form,
so tracers see every instruction.

Compiled bodies are cached on the method (``method._compiled``) and
dropped by the existing :meth:`DexMethod.invalidate` path, which every
in-repo mutator (MethodEditor, attacks, weaving) already calls.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Optional

from repro.dex.opcodes import Op
from repro.errors import VMCrash
from repro.vm.values import Instance, require_int, truthy

_MASK = 0xFFFFFFFF
_INT32_MAX = 2147483647
_WRAP = 0x100000000


def _eq(a, b) -> bool:
    # Cross-type equality never holds (but bool/int interoperate as in Java).
    if isinstance(a, bool):
        a = int(a)
    if isinstance(b, bool):
        b = int(b)
    return type(a) is type(b) and a == b


_COMPARES: Dict[Op, Callable] = {
    Op.IF_EQ: _eq,
    Op.IF_NE: lambda a, b: not _eq(a, b),
    Op.IF_LT: lambda a, b: require_int(a, "if_lt") < require_int(b, "if_lt"),
    Op.IF_GE: lambda a, b: require_int(a, "if_ge") >= require_int(b, "if_ge"),
    Op.IF_GT: lambda a, b: require_int(a, "if_gt") > require_int(b, "if_gt"),
    Op.IF_LE: lambda a, b: require_int(a, "if_le") <= require_int(b, "if_le"),
}

_ZERO_TESTS: Dict[Op, Callable] = {
    Op.IF_EQZ: lambda a: not truthy(a),
    Op.IF_NEZ: truthy,
    Op.IF_LTZ: lambda a: require_int(a, "if_ltz") < 0,
    Op.IF_GEZ: lambda a: require_int(a, "if_gez") >= 0,
}

#: (context string, raw int op) per two-register arithmetic opcode.
_ARITH = {
    Op.ADD: ("add", lambda x, y: x + y),
    Op.SUB: ("sub", lambda x, y: x - y),
    Op.MUL: ("mul", lambda x, y: x * y),
    Op.AND: ("and", lambda x, y: x & y),
    Op.OR: ("or", lambda x, y: x | y),
    Op.XOR: ("xor", lambda x, y: x ^ y),
    Op.SHL: ("shl", lambda x, y: x << (y & 31)),
    Op.SHR: ("shr", lambda x, y: x >> (y & 31)),
}

_ARITH_LIT = {
    Op.ADD_LIT: ("add_lit", lambda x, v: x + v),
    Op.SUB_LIT: ("sub_lit", lambda x, v: x - v),
    Op.MUL_LIT: ("mul_lit", lambda x, v: x * v),
    Op.AND_LIT: ("and_lit", lambda x, v: x & v),
    Op.OR_LIT: ("or_lit", lambda x, v: x | v),
    Op.XOR_LIT: ("xor_lit", lambda x, v: x ^ v),
}


class _Frame:
    """Per-activation state the step closures need."""

    __slots__ = (
        "interp", "runtime", "method", "tracer", "ctx", "budget",
        "depth", "cells", "result", "closed",
    )

    def __init__(self, interp, runtime, method, tracer, ctx, budget, depth, cells):
        self.interp = interp
        self.runtime = runtime
        self.method = method
        self.tracer = tracer
        self.ctx = ctx
        self.budget = budget
        self.depth = depth
        self.cells = cells
        self.result = None
        self.closed = 0  # instructions charged by counted-loop closed forms


class CompiledMethod:
    """One method, compiled: step closures plus tracer-fidelity maps.

    ``warmth`` counts the instructions its untraced, uncounted frames
    ran on the step table; ``tier2`` is the method's tier-2 function
    once it is warm (:mod:`repro.vm.tier2`).  ``loops`` maps the step
    index of each counted loop's head to its descriptor.
    """

    __slots__ = (
        "steps", "orig_pcs", "orig_instrs", "count", "cell_count",
        "exhausted", "loops", "warmth", "tier2",
    )

    def __init__(self, steps, orig_pcs, orig_instrs, cell_count, exhausted, loops):
        self.steps = steps
        self.orig_pcs = orig_pcs          # compiled index -> original pc
        self.orig_instrs = orig_instrs    # compiled index -> original Instr
        self.count = len(steps)
        self.cell_count = cell_count      # inline-cache cells (one per INVOKE site)
        self.exhausted = exhausted        # precomputed BudgetExhausted message
        self.loops = loops                # head index -> (i, n, accs, L, out)
        self.warmth = 0
        self.tier2 = None


# ---------------------------------------------------------------------------
# Inline-cached call dispatch
# ---------------------------------------------------------------------------


def _resolve_site(runtime, name):
    """Resolve an INVOKE target into a cacheable entry.

    ``(method,)`` for an app method (sound forever: load_dex forbids
    shadowing), ``(None, handler_name, cost, methods_gen)`` for a
    framework call (valid until the runtime loads more methods), or
    ``None`` for an unknown name (never cached -- the slow path raises
    with legacy semantics, and a later ``load_dex`` may define it).
    """
    target = runtime.find_method(name)
    if target is not None:
        return (target,)
    return runtime.framework.resolve_entry(name, runtime._methods_gen)


def _call(frame, name, call_args, cell):
    """INVOKE dispatch through the site's inline-cache cell."""
    runtime = frame.runtime
    cells = frame.cells
    entry = cells[cell]
    if entry is None:
        entry = _resolve_site(runtime, name)
        if entry is None:
            # Unknown name: legacy slow path (raises "unknown method").
            return runtime.framework.call(name, call_args, frame.ctx)
        cells[cell] = entry
    target = entry[0]
    if target is not None:
        return frame.interp.execute(target, call_args, frame.ctx, frame.depth + 1)
    if entry[3] != runtime._methods_gen:
        # New code was loaded since this site resolved: a payload class
        # may now shadow the framework name under method-first dispatch.
        entry = _resolve_site(runtime, name)
        if entry is None:
            return runtime.framework.call(name, call_args, frame.ctx)
        cells[cell] = entry
        target = entry[0]
        if target is not None:
            return frame.interp.execute(target, call_args, frame.ctx, frame.depth + 1)
    return runtime.framework.call_resolved(entry[1], entry[2], call_args, frame.ctx)


# ---------------------------------------------------------------------------
# Single-instruction step factories
# ---------------------------------------------------------------------------


def _cmp_unordered(left, right) -> VMCrash:
    return VMCrash(
        f"cmp: cannot order {type(left).__name__} and {type(right).__name__}"
    )


def _switch_unhashable(key) -> VMCrash:
    return VMCrash(f"switch: unhashable key of type {type(key).__name__}")


def _build_single(instr, pc, nxt, C):
    """Compile one instruction into a step closure.

    ``C`` is the per-method compile context: qualified name, label ->
    step-index resolver, and the inline-cache cell allocator.
    """
    op = instr.op

    if op is Op.CONST:
        dst, value = instr.dst, instr.value

        def step(regs, frame, dst=dst, value=value, nxt=nxt):
            regs[dst] = value
            return nxt
        return step

    if op is Op.MOVE:
        dst, a = instr.dst, instr.a

        def step(regs, frame, dst=dst, a=a, nxt=nxt):
            regs[dst] = regs[a]
            return nxt
        return step

    if op is Op.INVOKE:
        return _make_invoke(instr, nxt, C)

    if op in _COMPARES:
        pred = _COMPARES[op]
        a, b = instr.a, instr.b
        t = C.unit_for(instr.target)
        lbl = instr.target

        if t is None:
            def step(regs, frame, pred=pred, a=a, b=b, nxt=nxt, pc=pc, instr=instr, lbl=lbl):
                taken = pred(regs[a], regs[b])
                tr = frame.tracer
                if tr is not None:
                    tr.on_branch(frame.method, pc, instr, taken)
                if taken:
                    raise KeyError(lbl)
                return nxt
            return step

        def step(regs, frame, pred=pred, a=a, b=b, t=t, nxt=nxt, pc=pc, instr=instr):
            taken = pred(regs[a], regs[b])
            tr = frame.tracer
            if tr is not None:
                tr.on_branch(frame.method, pc, instr, taken)
            return t if taken else nxt
        return step

    if op in _ZERO_TESTS:
        pred = _ZERO_TESTS[op]
        a = instr.a
        t = C.unit_for(instr.target)
        lbl = instr.target

        if t is None:
            def step(regs, frame, pred=pred, a=a, nxt=nxt, pc=pc, instr=instr, lbl=lbl):
                taken = pred(regs[a])
                tr = frame.tracer
                if tr is not None:
                    tr.on_branch(frame.method, pc, instr, taken)
                if taken:
                    raise KeyError(lbl)
                return nxt
            return step

        def step(regs, frame, pred=pred, a=a, t=t, nxt=nxt, pc=pc, instr=instr):
            taken = pred(regs[a])
            tr = frame.tracer
            if tr is not None:
                tr.on_branch(frame.method, pc, instr, taken)
            return t if taken else nxt
        return step

    if op is Op.GOTO:
        t = C.unit_for(instr.target)
        if t is None:
            lbl = instr.target

            def step(regs, frame, lbl=lbl):
                raise KeyError(lbl)
            return step

        def step(regs, frame, t=t):
            return t
        return step

    if op is Op.RETURN:
        a = instr.a

        def step(regs, frame, a=a):
            frame.result = regs[a]
            return -1
        return step

    if op is Op.RETURN_VOID:
        def step(regs, frame):
            frame.result = None
            return -1
        return step

    if op in _ARITH:
        ctxname, fn = _ARITH[op]
        dst, a, b = instr.dst, instr.a, instr.b

        def step(regs, frame, dst=dst, a=a, b=b, nxt=nxt, fn=fn, ctxname=ctxname):
            x = regs[a]
            y = regs[b]
            if type(x) is int and type(y) is int:
                v = fn(x, y)
            else:
                v = fn(require_int(x, ctxname), require_int(y, ctxname))
            v &= _MASK
            regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op in _ARITH_LIT:
        ctxname, fn = _ARITH_LIT[op]
        dst, a, value = instr.dst, instr.a, instr.value

        def step(regs, frame, dst=dst, a=a, value=value, nxt=nxt, fn=fn, ctxname=ctxname):
            x = regs[a]
            if type(x) is not int:
                x = require_int(x, ctxname)
            v = fn(x, value)
            v &= _MASK
            regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op is Op.DIV:
        dst, a, b = instr.dst, instr.a, instr.b
        msg = f"division by zero in {C.qname}@{pc}"

        def step(regs, frame, dst=dst, a=a, b=b, nxt=nxt, msg=msg):
            divisor = regs[b]
            if type(divisor) is not int:
                divisor = require_int(divisor, "div")
            if divisor == 0:
                raise VMCrash(msg)
            x = regs[a]
            if type(x) is not int:
                x = require_int(x, "div")
            v = int(x / divisor) & _MASK
            regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op is Op.REM:
        dst, a, b = instr.dst, instr.a, instr.b
        msg = f"remainder by zero in {C.qname}@{pc}"

        def step(regs, frame, dst=dst, a=a, b=b, nxt=nxt, msg=msg):
            divisor = regs[b]
            if type(divisor) is not int:
                divisor = require_int(divisor, "rem")
            if divisor == 0:
                raise VMCrash(msg)
            dividend = regs[a]
            if type(dividend) is not int:
                dividend = require_int(dividend, "rem")
            v = (dividend - int(dividend / divisor) * divisor) & _MASK
            regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op is Op.DIV_LIT:
        dst, a, value = instr.dst, instr.a, instr.value
        if value == 0:
            msg = f"division by zero literal in {C.qname}@{pc}"

            def step(regs, frame, msg=msg):
                raise VMCrash(msg)
            return step

        def step(regs, frame, dst=dst, a=a, value=value, nxt=nxt):
            x = regs[a]
            if type(x) is not int:
                x = require_int(x, "div_lit")
            v = int(x / value) & _MASK
            regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op is Op.REM_LIT:
        dst, a, value = instr.dst, instr.a, instr.value
        if value == 0:
            msg = f"remainder by zero literal in {C.qname}@{pc}"

            def step(regs, frame, msg=msg):
                raise VMCrash(msg)
            return step

        def step(regs, frame, dst=dst, a=a, value=value, nxt=nxt):
            x = regs[a]
            if type(x) is not int:
                x = require_int(x, "rem_lit")
            v = (x - int(x / value) * value) & _MASK
            regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op is Op.NEG:
        dst, a = instr.dst, instr.a

        def step(regs, frame, dst=dst, a=a, nxt=nxt):
            x = regs[a]
            if type(x) is not int:
                x = require_int(x, "neg")
            v = (-x) & _MASK
            regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op is Op.NOT:
        dst, a = instr.dst, instr.a

        def step(regs, frame, dst=dst, a=a, nxt=nxt):
            value = regs[a]
            if isinstance(value, bool):
                regs[dst] = not value
            else:
                v = (~require_int(value, "not")) & _MASK
                regs[dst] = v - _WRAP if v > _INT32_MAX else v
            return nxt
        return step

    if op is Op.CMP:
        dst, a, b = instr.dst, instr.a, instr.b

        def step(regs, frame, dst=dst, a=a, b=b, nxt=nxt):
            left = regs[a]
            right = regs[b]
            try:
                regs[dst] = (left > right) - (left < right)
            except TypeError:
                raise _cmp_unordered(left, right) from None
            return nxt
        return step

    if op is Op.SWITCH:
        a = instr.a
        table = {}
        bad = {}
        for key, label in instr.value.items():
            t = C.unit_for(label)
            if t is None:
                table[key] = -2
                bad[key] = label
            else:
                table[key] = t

        def step(regs, frame, a=a, table=table, bad=bad, nxt=nxt, pc=pc, instr=instr):
            key = regs[a]
            if type(key) is bool:
                key = int(key)
            try:
                dest = table.get(key)
            except TypeError:
                raise _switch_unhashable(key) from None
            tr = frame.tracer
            if tr is not None:
                tr.on_branch(frame.method, pc, instr, dest is not None)
            if dest is None:
                return nxt
            if dest < 0:
                raise KeyError(bad[key])
            return dest
        return step

    if op is Op.THROW:
        a = instr.a

        def step(regs, frame, a=a):
            raise VMCrash(str(regs[a]))
        return step

    if op is Op.NEW_INSTANCE:
        dst, value = instr.dst, instr.value

        def step(regs, frame, dst=dst, value=value, nxt=nxt):
            regs[dst] = frame.runtime.new_instance(value)
            return nxt
        return step

    if op is Op.IGET:
        dst, a, fname = instr.dst, instr.a, instr.value
        msg = f"iget on non-object in {C.qname}@{pc}"

        def step(regs, frame, dst=dst, a=a, fname=fname, nxt=nxt, msg=msg):
            obj = regs[a]
            if not isinstance(obj, Instance):
                raise VMCrash(msg)
            regs[dst] = obj.get(fname)
            return nxt
        return step

    if op is Op.IPUT:
        a, b, fname = instr.a, instr.b, instr.value
        msg = f"iput on non-object in {C.qname}@{pc}"

        def step(regs, frame, a=a, b=b, fname=fname, nxt=nxt, msg=msg):
            obj = regs[b]
            if not isinstance(obj, Instance):
                raise VMCrash(msg)
            obj.put(fname, regs[a])
            return nxt
        return step

    if op is Op.SGET:
        dst, fname = instr.dst, instr.value

        def step(regs, frame, dst=dst, fname=fname, nxt=nxt):
            regs[dst] = frame.runtime.sget(fname)
            return nxt
        return step

    if op is Op.SPUT:
        a, fname = instr.a, instr.value

        def step(regs, frame, a=a, fname=fname, nxt=nxt):
            frame.runtime.sput(fname, regs[a])
            return nxt
        return step

    if op is Op.NEW_ARRAY:
        dst, a = instr.dst, instr.a

        def step(regs, frame, dst=dst, a=a, nxt=nxt):
            length = require_int(regs[a], "new_array")
            if length < 0 or length > 1 << 24:
                raise VMCrash(f"bad array length {length}")
            regs[dst] = [None] * length
            return nxt
        return step

    if op is Op.AGET:
        dst, a, b = instr.dst, instr.a, instr.b
        msg = f"aget on non-array in {C.qname}@{pc}"

        def step(regs, frame, dst=dst, a=a, b=b, nxt=nxt, msg=msg):
            array = regs[a]
            index = require_int(regs[b], "aget")
            if not isinstance(array, list):
                raise VMCrash(msg)
            if not 0 <= index < len(array):
                raise VMCrash(f"array index {index} out of bounds ({len(array)})")
            regs[dst] = array[index]
            return nxt
        return step

    if op is Op.APUT:
        dst, a, b = instr.dst, instr.a, instr.b
        msg = f"aput on non-array in {C.qname}@{pc}"

        def step(regs, frame, dst=dst, a=a, b=b, nxt=nxt, msg=msg):
            array = regs[dst]
            index = require_int(regs[b], "aput")
            if not isinstance(array, list):
                raise VMCrash(msg)
            if not 0 <= index < len(array):
                raise VMCrash(f"array index {index} out of bounds ({len(array)})")
            array[index] = regs[a]
            return nxt
        return step

    if op is Op.ARRAY_LEN:
        dst, a = instr.dst, instr.a
        msg = f"array_len on non-array in {C.qname}@{pc}"

        def step(regs, frame, dst=dst, a=a, nxt=nxt, msg=msg):
            array = regs[a]
            if not isinstance(array, list):
                raise VMCrash(msg)
            regs[dst] = len(array)
            return nxt
        return step

    if op is Op.NOP:
        def step(regs, frame, nxt=nxt):
            return nxt
        return step

    msg = f"unimplemented opcode {op!r}"

    def step(regs, frame, msg=msg):  # pragma: no cover - complete ISA
        raise VMCrash(msg)
    return step


def _make_invoke(instr, nxt, C):
    cell = C.alloc_cell()
    name = instr.value
    arg_regs = instr.args
    dst = instr.dst

    if dst is None:
        def step(regs, frame, name=name, arg_regs=arg_regs, cell=cell, nxt=nxt):
            call_args = [regs[r] for r in arg_regs]
            tr = frame.tracer
            if tr is not None:
                tr.on_invoke(name, call_args)
            _call(frame, name, call_args, cell)
            return nxt
        return step

    def step(regs, frame, dst=dst, name=name, arg_regs=arg_regs, cell=cell, nxt=nxt):
        call_args = [regs[r] for r in arg_regs]
        tr = frame.tracer
        if tr is not None:
            tr.on_invoke(name, call_args)
        regs[dst] = _call(frame, name, call_args, cell)
        return nxt
    return step


# ---------------------------------------------------------------------------
# Counted loops
# ---------------------------------------------------------------------------


def counted_exit(regs, loop, budget):
    """Run the counted loop ``loop`` from its head in one step.

    ``budget`` is what the budget cell held before the head was
    charged.  When the entry check passes (see module docstring), the
    loop's exit values are written to ``regs`` and the ``L*m``
    instructions of its ``m`` trips are returned: the caller charges
    them and the head's final test, then continues at ``out``.
    Otherwise ``regs`` is untouched and the result is None.
    """
    i, n, accs, size, _ = loop
    x = regs[i]
    y = regs[n]
    if type(x) is not int or type(y) is not int or x < -0x80000000 or y > _INT32_MAX:
        return None
    for a in accs:
        if type(regs[a]) is not int:
            return None
    if x >= y:
        return 0 if budget >= 1 else None
    m = y - x
    trips = size * m
    if budget <= trips:
        return None
    s = m * x + m * (m - 1) // 2
    for a in accs:
        v = (regs[a] + s) & _MASK
        regs[a] = v - _WRAP if v > _INT32_MAX else v
    regs[i] = y
    return trips


def _counted_loop(instrs, real, k, unit_for, registers):
    """The descriptor ``(i, n, accumulators, L, out)`` of the counted
    loop whose head is step ``k``, or None."""
    test = instrs[real[k]]
    i, n = test.a, test.b
    j = k + 1
    accs = []
    while j < len(real):
        ins = instrs[real[j]]
        if not (ins.op is Op.ADD and ins.dst == ins.a and ins.b == i):
            break
        accs.append(ins.dst)
        j += 1
    if j + 1 >= len(real):
        return None
    step, back = instrs[real[j]], instrs[real[j + 1]]
    if not (step.op is Op.ADD_LIT and step.dst == step.a == i
            and type(step.value) is int and step.value == 1):
        return None
    if back.op is not Op.GOTO or unit_for(back.target) != k:
        return None
    out = unit_for(test.target)
    if out is None or out <= j + 1:
        return None
    regs = {i, n, *accs}
    if len(regs) != len(accs) + 2 or not all(0 <= r < registers for r in regs):
        return None
    return i, n, tuple(accs), len(accs) + 3, out


def _counted_head(loop, plain):
    """The head step of counted loop ``loop``: its closed form in an
    untraced frame, the ``plain`` IF_GE step otherwise."""
    out = loop[4]

    def step(regs, frame, loop=loop, out=out, plain=plain):
        if frame.tracer is None:
            cell = frame.budget
            # The driver has charged the head: the cell held one more.
            trips = counted_exit(regs, loop, cell[0] + 1)
            if trips is not None:
                cell[0] -= trips
                frame.closed += trips
                return out
        return plain(regs, frame)
    return step


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class _CompileContext:
    __slots__ = ("qname", "unit_for", "_cells")

    def __init__(self, qname, unit_for):
        self.qname = qname
        self.unit_for = unit_for
        self._cells = 0

    def alloc_cell(self) -> int:
        index = self._cells
        self._cells = index + 1
        return index


def compile_method(method) -> CompiledMethod:
    """Compile ``method`` into a step table; caches on ``method._compiled``.

    The cache is dropped by :meth:`DexMethod.invalidate` -- the same
    hook structural editors already call for the label cache.
    """
    instrs = method.instructions
    labels = method.label_map()
    qname = method.qualified_name
    real = [idx for idx, ins in enumerate(instrs) if ins.op is not Op.LABEL]

    def unit_for(label_name: str) -> Optional[int]:
        """Step index a label jumps to, or None when the label is
        undefined (the step then raises KeyError at *execution* time,
        exactly as the uncompiled ``labels[target]`` lookup did).

        The first real instruction at-or-after the LABEL marker -- or
        len(real), which the driver turns into the same fell-off-the-end
        crash the original loop raised."""
        orig = labels.get(label_name)
        if orig is None:
            return None
        return bisect_left(real, orig)

    C = _CompileContext(qname, unit_for)
    steps = [_build_single(instrs[i], i, k + 1, C) for k, i in enumerate(real)]
    loops = {}
    for k, i in enumerate(real):
        if instrs[i].op is Op.IF_GE:
            loop = _counted_loop(instrs, real, k, unit_for, method.registers)
            if loop is not None:
                loops[k] = loop
                steps[k] = _counted_head(loop, steps[k])
    code = CompiledMethod(
        steps, real, [instrs[i] for i in real], C._cells,
        f"instruction budget exhausted in {qname}", loops,
    )
    method._compiled = code
    return code
