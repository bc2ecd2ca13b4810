"""Tier-2 execution: a warm method compiled into one Python function.

Tier-1 (:mod:`repro.vm.dispatch`) pays, per instruction, a driver-loop
iteration, a budget decrement and check, and a step-closure call.  Once
a method's untraced tier-1 frames have run :data:`WARM_INSTRUCTIONS`
instructions, :func:`compile_tier2` generates Python source for the
whole body and :meth:`Interpreter.execute` runs that function for every
frame that starts without a tracer.  Traced frames always run tier-1,
so tracer streams never depend on the tier; so do the frames the
hot-method profiler counts, which add no warmth.

A tier-2 frame leaves exactly the state a tier-1 frame leaves: result,
exception type and message, budget cell, cost units, statics.

**Blocks.**  A block starts at the method entry, at every label target
and after every branch, SWITCH, RETURN, THROW and INVOKE.  Control
enters a block only at its head and leaves it only after its last
instruction (or by an exception).

**Budget per block.**  On entry a block of ``L`` instructions charges
all ``L`` at once when the budget cell holds at least ``L``.  An INVOKE
ends its block, so a callee sees exactly the budget tier-1 would leave
it.  Otherwise exhaustion is certain inside the block, and
:func:`_short_runner` runs it on the method's tier-1 steps with
tier-1's decrement-then-check until the budget runs out.

**Exceptions mid-block.**  An instruction that may raise while charged
instructions follow it in its block sets ``refund`` to their number
before it runs and back to 0 after.  The handler around the body gives
``refund`` back to the budget cell and the frame's cost, so a crash at
the k-th instruction of a block is charged k instructions, as in
tier-1.  The frame's cost reaches ``runtime.cost_units`` in a
``finally``, as in tier-1.

**Opcodes.**  Hot opcodes are inlined with tier-1's ``type(x) is int``
fast paths, calling ``require_int`` only off them and in tier-1's
operand order.  SGET and SPUT use the runtime's statics dict, bound
once per frame (``Runtime.statics`` is one dict for the runtime's
life), and call ``Runtime.sget``/``sput`` only for a missing field,
which raises.  Every other opcode calls its tier-1 step closure, so
its semantics live in one place.  INVOKE goes through
:func:`repro.vm.dispatch._call` with tier-1's inline-cache cell index
(the INVOKE's ordinal in program order).

**Dispatch.**  Blocks run in program order, each guarded by
``if b <= k:``.  A forward jump sets ``b`` and falls through the guards
(one compare per block skipped); a back edge sets ``b`` and continues
a ``while True:`` around them all.  A simple loop -- entered only at
its head, left only forward -- runs as its own inner ``while True:``,
so it pays no guard compares per iteration.  Registers stay in the
frame's list.

**Counted loops.**  On entry to a simple loop that is a counted loop
(:mod:`repro.vm.dispatch`), the function calls
:func:`~repro.vm.dispatch.counted_exit`, the closed form tier-1 uses
too; when it declines, the checked loop runs.

Code objects are memoised by source text, with per-method constants
bound through the exec namespace, so identical bodies -- a genuine and
a repackaged install, the same payload loaded in every session --
compile once per process.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Dict, List

from repro.crypto import sha1_hex
from repro.dex.opcodes import CONDITIONAL_BRANCHES, Op
from repro.errors import BudgetExhausted, VMCrash
from repro.vm.dispatch import (
    _ARITH,
    _ARITH_LIT,
    _call,
    _eq,
    _switch_unhashable,
    counted_exit,
)
from repro.vm.values import require_int, truthy

#: Instructions a method's untraced tier-1 frames run before the method
#: is compiled to tier-2.
WARM_INSTRUCTIONS = 256

#: Opcodes after which a new block starts.
_ENDS_BLOCK = CONDITIONAL_BRANCHES | {
    Op.GOTO, Op.SWITCH, Op.RETURN, Op.RETURN_VOID, Op.THROW, Op.INVOKE,
}

_BINARY = {
    Op.ADD: "x + y", Op.SUB: "x - y", Op.MUL: "x * y", Op.AND: "x & y",
    Op.OR: "x | y", Op.XOR: "x ^ y", Op.SHL: "x << (y & 31)",
    Op.SHR: "x >> (y & 31)",
}
_LITERAL = {
    Op.ADD_LIT: "+", Op.SUB_LIT: "-", Op.MUL_LIT: "*", Op.AND_LIT: "&",
    Op.OR_LIT: "|", Op.XOR_LIT: "^",
}
_ORDER = {Op.IF_LT: "<", Op.IF_GE: ">=", Op.IF_GT: ">", Op.IF_LE: "<="}

#: Helpers every generated function takes as fast locals.
_HELPERS = {
    "ri": require_int, "call": _call, "eq": _eq, "truthy": truthy,
    "VMCrash": VMCrash, "unhashable": _switch_unhashable, "counted": counted_exit,
}

_WRAP = "v - 0x100000000 if v > 0x7FFFFFFF else v"


def _blocks(instrs, labels) -> List[List[int]]:
    """Real-instruction pcs, split into blocks (see module docstring)."""
    leaders = {
        labels[name] for ins in instrs for name in ins.branch_labels() if name in labels
    }
    blocks: List[List[int]] = []
    current: List[int] = []
    for pc, ins in enumerate(instrs):
        if ins.op is Op.LABEL:
            if pc in leaders and current:
                blocks.append(current)
                current = []
            continue
        current.append(pc)
        if ins.op in _ENDS_BLOCK:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


@lru_cache(maxsize=1024)
def _code_for(source: str):
    # A per-source filename keeps each generated function apart in a
    # profile; identical sources still share one code object.
    digest = sha1_hex(source.encode("utf-8"))[:10]
    return compile(source, f"<tier2 {digest}>", "exec")


def _short_runner(blocks, steps: Dict[int, object], exhausted: str):
    """The slow path of a block the budget cannot cover.

    ``steps`` maps pc -> tier-1 step; the index a step returns is
    ignored, since blocks run in program order.
    """

    def short(k, regs, frame):
        cell = frame.budget
        runtime = frame.runtime
        # The block was entered with fewer than L instructions left, so
        # one of its L charges exhausts the budget: the last instruction
        # (a branch, return or INVOKE, maybe) never runs here.
        for pc in blocks[k][:-1]:
            cell[0] -= 1
            if cell[0] < 0:
                raise BudgetExhausted(exhausted)
            runtime.cost_units += 1
            steps[pc](regs, frame)
        cell[0] -= 1
        raise BudgetExhausted(exhausted)

    return short


class _Source:
    """Generated source for one method, plus its exec namespace."""

    def __init__(self, method, code) -> None:
        self.instrs = method.instructions
        labels = method.label_map()
        self.steps = dict(zip(code.orig_pcs, code.steps))
        self.orig_pcs = code.orig_pcs
        self.loops = code.loops
        self.blocks = _blocks(self.instrs, labels)
        heads = [block[0] for block in self.blocks]
        #: label -> block index (len(blocks): falls off the end)
        self.block_of = {name: bisect_left(heads, pc) for name, pc in labels.items()}
        self.ns: Dict[str, object] = {}
        self.lines: List[str] = []
        self.back_edges = False
        self.inner = None
        self.cell = 0

    def bind(self, value) -> str:
        name = f"K{len(self.ns)}"
        self.ns[name] = value
        return name

    def lit(self, value) -> str:
        """``value`` as a source literal, or bound to a name."""
        if value is None or type(value) in (int, bool):
            return repr(value)
        return self.bind(value)

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    # -- per-instruction emitters -------------------------------------------

    def jump(self, d: int, label: str, k: int) -> None:
        t = self.block_of.get(label)
        if t is None:
            self.emit(d, f"raise KeyError({label!r})")
        elif self.inner is not None:
            # Inside a simple loop: back to its head, or out past its end.
            if t == self.inner[0]:
                self.emit(d, "continue")
            else:
                self.emit(d, f"b = {t}")
                self.emit(d, "break")
        else:
            self.emit(d, f"b = {t}")
            if t <= k:
                self.back_edges = True
                self.emit(d, "continue")

    def guarded(self, d: int, n: int, lines: List[str]) -> None:
        """Lines that may raise while ``n`` charged instructions follow."""
        if n:
            self.emit(d, f"refund = {n}")
        for line in lines:
            self.emit(d, line)
        if n:
            self.emit(d, "refund = 0")

    def generic(self, d: int, pc: int, n: int) -> None:
        self.guarded(d, n, [f"{self.bind(self.steps[pc])}(r, frame)"])

    def ints(self, d: int, n: int, name: str, *regs: int) -> None:
        """Load the int operands ``regs`` of opcode ``name`` into
        ``x``/``y``, through ``ri`` off the ``type(x) is int`` fast path."""
        temps = ["x", "y"][: len(regs)]
        for t, i in zip(temps, regs):
            self.emit(d, f"{t} = r[{i}]")
        self.emit(d, "if " + " or ".join(f"type({t}) is not int" for t in temps) + ":")
        self.guarded(d + 1, n, [f"{t} = ri({t}, {name!r})" for t in temps])

    def instr(self, d: int, pc: int, n: int, k: int) -> None:
        ins = self.instrs[pc]
        op = ins.op
        if op is Op.CONST:
            self.emit(d, f"r[{ins.dst}] = {self.lit(ins.value)}")
        elif op is Op.MOVE:
            self.emit(d, f"r[{ins.dst}] = r[{ins.a}]")
        elif op is Op.NOP:
            pass
        elif op in _BINARY:
            self.ints(d, n, _ARITH[op][0], ins.a, ins.b)
            self.emit(d, f"v = ({_BINARY[op]}) & 0xFFFFFFFF")
            self.emit(d, f"r[{ins.dst}] = {_WRAP}")
        elif op in _LITERAL and type(ins.value) is int:
            self.ints(d, n, _ARITH_LIT[op][0], ins.a)
            self.emit(d, f"v = (x {_LITERAL[op]} ({ins.value!r})) & 0xFFFFFFFF")
            self.emit(d, f"r[{ins.dst}] = {_WRAP}")
        elif op in _ORDER:
            self.ints(d, n, op.value, ins.a, ins.b)
            self.emit(d, f"if x {_ORDER[op]} y:")
            self.jump(d + 1, ins.target, k)
        elif op is Op.IF_EQ or op is Op.IF_NE:
            self.emit(d, f"x = r[{ins.a}]")
            self.emit(d, f"y = r[{ins.b}]")
            test = "x == y if type(x) is int and type(y) is int else eq(x, y)"
            self.emit(d, f"if {test}:" if op is Op.IF_EQ else f"if not ({test}):")
            self.jump(d + 1, ins.target, k)
        elif op is Op.IF_EQZ or op is Op.IF_NEZ:
            self.emit(d, f"x = r[{ins.a}]")
            if op is Op.IF_EQZ:
                self.emit(d, "if x == 0 if type(x) is int else not truthy(x):")
            else:
                self.emit(d, "if x != 0 if type(x) is int else truthy(x):")
            self.jump(d + 1, ins.target, k)
        elif op is Op.IF_LTZ or op is Op.IF_GEZ:
            self.ints(d, n, op.value, ins.a)
            self.emit(d, "if x < 0:" if op is Op.IF_LTZ else "if x >= 0:")
            self.jump(d + 1, ins.target, k)
        elif op is Op.GOTO:
            self.jump(d, ins.target, k)
        elif op is Op.SWITCH:
            self.switch(d, ins, k)
        elif op is Op.RETURN:
            self.emit(d, f"return r[{ins.a}]")
        elif op is Op.RETURN_VOID:
            self.emit(d, "return None")
        elif op is Op.SGET:
            self.emit(d, "try:")
            self.emit(d + 1, f"r[{ins.dst}] = statics[{ins.value!r}]")
            self.emit(d, "except KeyError:")
            self.guarded(d + 1, n, [f"r[{ins.dst}] = runtime.sget({ins.value!r})"])
        elif op is Op.SPUT:
            self.emit(d, f"if {ins.value!r} in statics:")
            self.emit(d + 1, f"statics[{ins.value!r}] = r[{ins.a}]")
            self.emit(d, "else:")
            self.guarded(d + 1, n, [f"runtime.sput({ins.value!r}, r[{ins.a}])"])
        elif op is Op.INVOKE:
            args = ", ".join(f"r[{reg}]" for reg in ins.args)
            cell = self.cell
            self.cell += 1
            call = f"call(frame, {ins.value!r}, [{args}], {cell})"
            self.emit(d, call if ins.dst is None else f"r[{ins.dst}] = {call}")
        else:
            self.generic(d, pc, n)

    def switch(self, d: int, ins, k: int) -> None:
        table = {}
        bad = {}
        back = False
        for key, label in ins.value.items():
            t = self.block_of.get(label)
            if t is None:
                table[key] = -1
                bad[key] = label
            else:
                table[key] = t
                back = back or t <= k
        self.emit(d, f"x = r[{ins.a}]")
        self.emit(d, "if type(x) is bool:")
        self.emit(d + 1, "x = int(x)")
        self.emit(d, "try:")
        self.emit(d + 1, f"t = {self.bind(table)}.get(x)")
        self.emit(d, "except TypeError:")
        self.emit(d + 1, "raise unhashable(x) from None")
        self.emit(d, "if t is not None:")
        if bad:
            self.emit(d + 1, "if t < 0:")
            self.emit(d + 2, f"raise KeyError({self.bind(bad)}[x])")
        self.emit(d + 1, "b = t")
        if back:
            self.back_edges = True
            self.emit(d + 1, "continue")

    # -- the function -------------------------------------------------------

    def simple_loops(self) -> Dict[int, int]:
        """head -> end block of every simple loop.

        A simple loop is a block range ``[head, end]`` whose last block
        jumps back to ``head``, that no jump enters except at ``head``,
        and whose other jumps all leave forward past ``end``.  It runs
        as an inner ``while True:`` with no guard compares per iteration.
        """
        targeted = set()
        switches = set()
        jumps = {}  # block -> block its last instruction jumps to
        for k, block in enumerate(self.blocks):
            last = self.instrs[block[-1]]
            if last.op is Op.SWITCH:
                switches.add(k)
                targeted.update(self.block_of.get(t) for t in last.value.values())
            elif last.target is not None:
                jumps[k] = self.block_of.get(last.target)
                targeted.add(jumps[k])
        loops = {}
        for end, head in jumps.items():
            if head is None or head > end or head in loops:
                continue
            if any(k in targeted for k in range(head + 1, end + 1)):
                continue
            if any(
                k in switches or (jumps.get(k) is not None and jumps[k] <= end)
                for k in range(head, end)
            ):
                continue
            loops[head] = end
        return loops

    def block(self, d: int, k: int) -> None:
        block = self.blocks[k]
        size = len(block)
        self.emit(d, f"c = cell[0] - {size}")
        self.emit(d, "if c < 0:")
        self.emit(d + 1, f"short({k}, r, frame)")
        self.emit(d, "cell[0] = c")
        self.emit(d, f"cost += {size}")
        for pos, pc in enumerate(block):
            self.instr(d, pc, size - pos - 1, k)

    def loop(self, d: int, head: int, end: int) -> None:
        self.emit(d, "while True:")
        self.inner = (head, end)
        for k in range(head, end + 1):
            self.block(d + 1, k)
        if self.instrs[self.blocks[end][-1]].op is not Op.GOTO:
            self.emit(d + 1, "break")  # the back edge was not taken
        self.inner = None

    def closed_form(self, d: int, head: int) -> bool:
        """Emit the call of the closed form when the simple loop at
        block ``head`` is a counted loop: on success it charges the
        loop and sets ``b`` to the exit block.  Such a loop spans
        exactly the counted loop, whose body jumps only back to it."""
        first = self.blocks[head][0]
        loop = self.loops.get(bisect_left(self.orig_pcs, first))
        if loop is None:
            return False
        out = self.block_of[self.instrs[first].target]
        self.emit(d, f"c = counted(r, {self.bind(loop)}, cell[0])")
        self.emit(d, "if c is not None:")
        self.emit(d + 1, "c += 1")
        self.emit(d + 1, "cell[0] -= c")
        self.emit(d + 1, "cost += c")
        self.emit(d + 1, f"b = {out}")
        return True

    def generate(self, fell_off: str) -> str:
        d = 4
        loops = self.simple_loops()
        k = 0
        while k < len(self.blocks):
            self.emit(d - 1, f"if b <= {k}:")
            end = loops.get(k)
            if end is None:
                self.block(d, k)
                k += 1
                continue
            if self.closed_form(d, k):
                self.emit(d, f"if b <= {k}:")
                self.loop(d + 1, k, end)
            else:
                self.loop(d, k, end)
            k = end + 1
        self.emit(d - 1, f"raise VMCrash({self.bind(fell_off)})")
        body = self.lines
        if not self.back_edges:
            # No back edge: drop the loop, one indent level less.
            body = [line[4:] for line in body]
        params = ", ".join(f"{name}={name}" for name in (*_HELPERS, "short", *self.ns))
        head = [
            f"def run(r, frame, cell, {params}):",
            "    runtime = frame.runtime",
            "    statics = runtime.statics",
            "    cost = 0",
            "    refund = 0",
            "    b = 0",
            "    try:",
        ]
        if self.back_edges:
            head.append("        while True:")
        tail = [
            "    except BaseException:",
            "        if refund:",
            "            cell[0] += refund",
            "            cost -= refund",
            "        raise",
            "    finally:",
            "        runtime.cost_units += cost",
        ]
        return "\n".join(head + body + tail) + "\n"


def compile_tier2(method, code):
    """Compile ``method`` (tier-1 body ``code``) to its tier-2 function
    ``run(registers, frame, budget_cell)`` and cache it on ``code``."""
    src = _Source(method, code)
    source = src.generate(
        f"{method.qualified_name}: control fell off the end of the method"
    )
    ns = dict(_HELPERS)
    ns.update(src.ns)
    ns["short"] = _short_runner(src.blocks, src.steps, code.exhausted)
    exec(_code_for(source), ns)
    fn = code.tier2 = ns["run"]
    return fn
