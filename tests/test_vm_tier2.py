"""Generated-program differential: tier-2 against the reference VM.

Hypothesis draws methods with branches, loops, switches, arrays, string
calls, helper invokes, jumps to undefined labels and operands that fail
type checks at run time (parameters of any type reach every opcode).
Every method runs on tier-2 from its first call and on the test-only
reference loop (``tests/vm_reference.py``) at every budget from 1 to
the full run, and both must agree on the result or exception (type and
message), the instructions consumed, the cost units and the statics.
A second test warms a method onto tier-2, splices a slice of another
generated method into it with ``MethodEditor`` and diffs the runs of
the edited body the same way.  A third draws simple loops of int-only
register work, which tier-2 runs as checked inner loops.  A fourth
draws counted loops, whose exit values both tiers compute in closed
form, and checks that the closed form both runs and agrees on tier-2
and on tier-1 frames of every kind: counted by the profiler, untraced
before the method warms, and traced (which must never take it).
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.verifier import verify_method
from repro.core import ResponseKind
from repro.core.instrumenter import MethodEditor
from repro.core.responses import SLOWDOWN_ITERATIONS, emit_response
from repro.dex import assemble, assemble_method, instructions as ins
from repro.dex.builder import MethodBuilder
from repro.dex.instructions import Instr
from repro.dex.model import DexMethod
from repro.dex.opcodes import Op
from repro.lint.diagnostics import errors
from repro.vm import Runtime, tier2
from repro.vm import dispatch
from repro.vm.dispatch import counted_exit
from repro.vm.interpreter import CountingTracer
from tests.vm_reference import reference_runtime

HELPERS = """
.class G
.field si static 0
.field ss static "s"
.method inc 1
    add_lit r1, r0, 1
    return r1
.end
.method count 1
    const r1, 0
@top:
    if_ge r1, r0, @done
    add_lit r1, r1, 1
    goto @top
@done:
    return r1
.end
"""

#: Budget of the full run; looping programs exhaust it.
FULL = 200

#: Label that is placed while building, then deleted: jumps to it hit
#: an undefined label at run time.
GONE = "gone"

INTS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([2**31 - 1, -(2**31), 2**31, 2**32 + 3, -(2**40)]),
    st.booleans(),
)
STRS = st.one_of(st.sampled_from(["", "a", "b", "ab"]), st.none())
ARGS = st.one_of(
    INTS, STRS, st.lists(st.integers(-2, 3), max_size=3),
)

_INT_BINOPS = [Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR]
_LIT_BINOPS = [
    Op.ADD_LIT, Op.SUB_LIT, Op.MUL_LIT, Op.DIV_LIT, Op.REM_LIT, Op.AND_LIT,
    Op.OR_LIT, Op.XOR_LIT,
]
_BRANCHES = [Op.IF_EQ, Op.IF_NE, Op.IF_LT, Op.IF_GE, Op.IF_GT, Op.IF_LE]
_ZERO_BRANCHES = [Op.IF_EQZ, Op.IF_NEZ, Op.IF_LTZ, Op.IF_GEZ]
#: Statement kinds; calls are listed twice, so that bodies often hold
#: several INVOKE sites (one inline-cache cell each).  "loop" is last:
#: loop bodies draw from the others.
_KINDS = [
    "const", "move", "binop", "lit", "unary", "cmp", "array", "string",
    "string", "helper", "helper", "static", "branch", "zero_branch", "goto",
    "switch", "exit", "nop", "loop",
]


@st.composite
def programs(draw):
    """(instructions, registers, params, dangling) of one ``G.main``."""
    params = draw(st.integers(0, 2))
    b = MethodBuilder("G", "main", params=params)
    P = list(range(params))
    # Typed register pools keep the verifier's type lattice happy; the
    # parameters are untyped and may reach any operand.
    # Array lengths come from their own register: a computed length
    # near the 1 << 24 cap would allocate ~100 MB on every run.
    I, S, A, N = b.regs(3), b.regs(2), b.regs(1), b.reg()
    for reg in I:
        b.const(reg, draw(INTS))
    for reg in S:
        b.const(reg, draw(STRS))
    b.const(N, draw(st.integers(0, 4)))
    b.new_array(A[0], N)

    dangling = draw(st.booleans())
    # Labels placed at random positions; loops add their own as well.
    placed = [f"L{k}" for k in range(draw(st.integers(0, 3)))]
    if dangling:
        placed.append(GONE)
    targets = list(placed)

    def pick(pool):
        return draw(st.sampled_from(pool + P))

    def statement(kinds):
        """One drawn statement, as a list of instructions."""
        body = []
        kind = draw(st.sampled_from(kinds))
        if kind in ("branch", "zero_branch", "goto", "switch") and not targets:
            kind = "nop"
        if kind == "const":
            body.append(ins.const(draw(st.sampled_from(I)), draw(INTS)))
        elif kind == "move":
            pool = draw(st.sampled_from([I, S]))
            body.append(ins.move(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
        elif kind == "binop":
            op = draw(st.sampled_from(_INT_BINOPS))
            body.append(ins.binop(op, draw(st.sampled_from(I)), pick(I), pick(I)))
        elif kind == "lit":
            op = draw(st.sampled_from(_LIT_BINOPS))
            body.append(ins.binop_lit(op, draw(st.sampled_from(I)), pick(I), draw(st.integers(-3, 40))))
        elif kind == "unary":
            op = draw(st.sampled_from([Op.NEG, Op.NOT]))
            body.append(Instr(op, dst=draw(st.sampled_from(I)), a=pick(I)))
        elif kind == "cmp":
            body.append(ins.binop(Op.CMP, draw(st.sampled_from(I)), pick(I + S), pick(I + S)))
        elif kind == "array":
            which = draw(st.sampled_from(["new", "get", "put", "len"]))
            if which == "new":
                body.append(ins.new_array(A[0], pick([N])))
            elif which == "get":
                body.append(ins.aget(draw(st.sampled_from(I)), pick(A), pick(I)))
            elif which == "put":
                body.append(ins.aput(pick(I + S), pick(A), pick(I)))
            else:
                body.append(ins.array_len(draw(st.sampled_from(I)), pick(A)))
        elif kind == "string":
            name = draw(st.sampled_from(["java.str.length", "java.str.concat", "java.str.equals"]))
            if name == "java.str.concat":
                body.append(ins.invoke(draw(st.sampled_from(S)), name, (pick(S), pick(S))))
            elif name == "java.str.equals":
                body.append(ins.invoke(draw(st.sampled_from(I)), name, (pick(S), pick(S))))
            else:
                body.append(ins.invoke(draw(st.sampled_from(I)), name, (pick(S),)))
        elif kind == "helper":
            name = draw(st.sampled_from(["G.inc", "G.count", "G.missing"]))
            dst = draw(st.sampled_from(I + [None]))
            body.append(ins.invoke(dst, name, (pick(I),)))
        elif kind == "static":
            field, pool = draw(st.sampled_from([("G.si", I), ("G.ss", S), ("G.nope", I)]))
            if draw(st.booleans()):
                body.append(ins.sget(draw(st.sampled_from(pool)), field))
            else:
                body.append(ins.sput(pick(pool), field))
        elif kind == "branch":
            op = draw(st.sampled_from(_BRANCHES))
            body.append(Instr(op, a=pick(I + S), b=pick(I + S), target=draw(st.sampled_from(targets))))
        elif kind == "zero_branch":
            op = draw(st.sampled_from(_ZERO_BRANCHES))
            body.append(Instr(op, a=pick(I + S), target=draw(st.sampled_from(targets))))
        elif kind == "goto":
            body.append(ins.goto(draw(st.sampled_from(targets))))
        elif kind == "switch":
            keys = draw(st.lists(st.one_of(st.integers(-1, 3), st.sampled_from(["a", "b"])),
                                 min_size=1, max_size=3, unique=True))
            table = {key: draw(st.sampled_from(targets)) for key in keys}
            body.append(ins.switch(pick(I + S + A), table))
        elif kind == "exit":
            body.append(draw(st.sampled_from([
                ins.ret(pick(I + S)), ins.ret_void(), ins.throw(pick(S)),
            ])))
        elif kind == "loop":
            # A counted loop around 1-3 statements, top- or bottom-tested;
            # random labels may still land inside it.
            top, done, counter = f"W{len(targets)}", f"X{len(targets)}", draw(st.sampled_from(I))
            body.append(ins.const(counter, draw(st.integers(0, 3))))
            body.append(ins.Label(top))
            inner = [i for _ in range(draw(st.integers(1, 3))) for i in statement(_KINDS[:-1])]
            if draw(st.booleans()):
                body.append(ins.if_ge(counter, pick(I), done))
                body.extend(inner)
                body.append(ins.binop_lit(Op.ADD_LIT, counter, counter, 1))
                body.append(ins.goto(top))
            else:
                body.extend(inner)
                body.append(ins.binop_lit(Op.SUB_LIT, counter, counter, 1))
                body.append(Instr(Op.IF_GEZ, a=counter, target=top))
            body.append(ins.Label(done))
            targets.extend((top, done))
        else:
            body.append(Instr(Op.NOP))
        return body

    body = []
    for _ in range(draw(st.integers(2, 20))):
        body.extend(statement(_KINDS))
    body.append(ins.ret(pick(I)))

    # Each label lands once, anywhere -- after the final return too,
    # where a jump falls off the end of the method.
    at = {}
    for label in placed:
        at.setdefault(draw(st.integers(0, len(body))), []).append(label)
    for index in range(len(body) + 1):
        for label in at.get(index, ()):
            b.label(label)
        if index < len(body):
            b.emit(body[index])
    method = b.build()
    instructions = [i for i in method.instructions if i != ins.Label(GONE)]
    return instructions, method.registers, params, dangling


def _runtime(make, program):
    instructions, registers, params, _ = program
    dex = assemble(HELPERS)
    dex.classes["G"].add_method(DexMethod(
        name="main", class_name="G", params=params, registers=registers,
        instructions=list(instructions),
    ))
    return make(dex, seed=0)


def _outcome(runtime, args, budget):
    before = runtime.cost_units
    ctx = runtime.session(budget=budget)
    try:
        result = ctx.run(runtime.find_method("G.main"), copy.deepcopy(args))
        got = ("ok", repr(result.value))
    except Exception as exc:  # noqa: BLE001 - VM errors and KeyError alike
        got = (type(exc).__name__, str(exc))
    statics = sorted((key, repr(value)) for key, value in runtime.statics.items())
    return got + (ctx.consumed, runtime.cost_units - before, statics)


@contextmanager
def _tier2_from_first_call():
    saved = tier2.WARM_INSTRUCTIONS
    tier2.WARM_INSTRUCTIONS = 0
    try:
        yield
    finally:
        tier2.WARM_INSTRUCTIONS = saved


def _agrees_at_every_budget(program, args, edit=None, full=FULL):
    """Diff tier-2 against the oracle at every budget up to ``full``;
    with ``edit``, first warm the method onto tier-2, then apply
    ``edit(MethodEditor)`` in both."""
    ref = _runtime(reference_runtime, program)
    fast = _runtime(Runtime, program)
    with _tier2_from_first_call():
        if edit is not None:
            assert _outcome(fast, args, FULL) == _outcome(ref, args, FULL)
            main = fast.find_method("G.main")
            assert main._compiled.tier2 is not None
            for runtime in (ref, fast):
                edit(MethodEditor(runtime.find_method("G.main"), label_ns="s"))
            assert main._compiled is None
        whole = _outcome(ref, args, full)
        assert _outcome(fast, args, full) == whole
        for budget in range(1, min(whole[2] + 1, full) + 1):
            assert _outcome(fast, args, budget) == _outcome(ref, args, budget), budget
    assert fast.find_method("G.main")._compiled.tier2 is not None


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program=programs(), args=st.lists(ARGS, min_size=2, max_size=2))
def test_tier2_matches_reference_at_every_budget(program, args):
    instructions, registers, params, dangling = program
    if not dangling:
        main = DexMethod(
            name="main", class_name="G", params=params, registers=registers,
            instructions=list(instructions),
        )
        assert not errors(verify_method(main)), "generator left the verifier's language"
    _agrees_at_every_budget(program, args[:params])


def _relabel(instructions, prefix):
    """``instructions`` with every label name prefixed."""
    out = []
    for i in instructions:
        if i.op is Op.LABEL:
            i = dataclasses.replace(i, value=prefix + i.value)
        elif i.target is not None:
            i = dataclasses.replace(i, target=prefix + i.target)
        elif i.op is Op.SWITCH:
            i = dataclasses.replace(i, value={k: prefix + v for k, v in i.value.items()})
        out.append(i)
    return out


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    program=programs(), donor=programs(),
    args=st.lists(ARGS, min_size=2, max_size=2), data=st.data(),
)
def test_tier2_matches_reference_after_a_splice(program, donor, args, data):
    """A warm tier-2 method edited between runs: the splice replaces a
    random range with a random slice of another generated method (its
    labels renamed apart; labels the edit drops become undefined)."""
    length = len(program[0])
    start = data.draw(st.integers(0, length))
    end = data.draw(st.integers(start, min(start + 4, length)))
    lo = data.draw(st.integers(0, len(donor[0])))
    hi = data.draw(st.integers(lo, min(lo + 8, len(donor[0]))))
    fragment = _relabel(donor[0][lo:hi], "s_")

    def edit(editor):
        editor.splice(start, end, fragment)
        editor.method.grow_registers(max(donor[1] - editor.method.registers, 0))

    _agrees_at_every_budget(program, args[: program[2]], edit)


#: Entry values of a loop's registers: exact ints most often, and
#: bools, ``None``, strings and ints outside 32 bits.
ENTRY = st.one_of(st.integers(-3, 12), INTS, STRS)


@st.composite
def int_loops(draw):
    """(instructions, registers, params, False) of a ``G.main`` whose one
    simple loop holds only int CONSTs, MOVE, NOP, the eight register
    binops, int-literal binops, compares and GOTO.  Its conditional
    exits leave for ``@out``; its back edge is a GOTO or a compare,
    whose fall-through is an exit too."""
    params = draw(st.integers(0, 2))
    b = MethodBuilder("G", "main", params=params)
    R = list(range(params)) + b.regs(3)
    for reg in R[params:]:
        b.const(reg, draw(ENTRY))
    b.label("top")

    def pick():
        return draw(st.sampled_from(R))

    def compare(target):
        if draw(st.booleans()):
            return Instr(draw(st.sampled_from(_BRANCHES)), a=pick(), b=pick(), target=target)
        return Instr(draw(st.sampled_from(_ZERO_BRANCHES)), a=pick(), target=target)

    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["const", "move", "binop", "lit", "exit", "nop"]))
        if kind == "const":
            b.emit(ins.const(pick(), draw(st.integers(-3, 2**31 - 1))))
        elif kind == "move":
            b.emit(ins.move(pick(), pick()))
        elif kind == "binop":
            op = draw(st.sampled_from([op for op in _INT_BINOPS if op not in (Op.DIV, Op.REM)]))
            b.emit(ins.binop(op, pick(), pick(), pick()))
        elif kind == "lit":
            op = draw(st.sampled_from([Op.ADD_LIT, Op.SUB_LIT, Op.MUL_LIT, Op.AND_LIT,
                                       Op.OR_LIT, Op.XOR_LIT]))
            b.emit(ins.binop_lit(op, pick(), pick(), draw(st.integers(-3, 40))))
        elif kind == "exit":
            b.emit(compare("out"))
        else:
            b.emit(Instr(Op.NOP))
    b.emit(ins.goto("top") if draw(st.booleans()) else compare("top"))
    b.label("out")
    b.emit(ins.ret(pick()))
    method = b.build()
    return method.instructions, method.registers, params, False


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program=int_loops(), args=st.lists(ENTRY, min_size=2, max_size=2))
def test_int_only_loops_match_reference_at_every_budget(program, args):
    _agrees_at_every_budget(program, args[: program[2]])


#: Counter entry values at the low edge of the closed form's entry check
#: (-2**31 - 2 is the first whose increment wraps), and bound values at
#: its high edge (from 2**31 the counter wraps before reaching it).
LOW = st.sampled_from([-(2**31), -(2**31) - 1, -(2**31) - 2])
HIGH = st.sampled_from([2**31 - 1, 2**31])

#: Int entry values of an accumulator, small or of any size.
ACCUMULATED = st.one_of(st.integers(-50, 50), st.integers(-(2**40), 2**40))

#: Budget of a counted loop's full run: covers 40 trips of 6
#: instructions and the code around them.
COUNTED_FULL = 280


@st.composite
def counted_loops(draw):
    """(instructions, registers, params, False) of a ``G.main`` around
    one loop ``if_ge i, n, @out; add a, a, i (0-3 times); add_lit i, i,
    1; goto``, returning all its registers.  The entry values put
    ``n`` 0-40 above an int ``i`` (small, at the low edge or
    ``-2**40``), or ``n`` at the high edge and ``i`` 0-40 below it, or
    draw both freely.  In a quarter of the loops with accumulators one of them
    aliases ``i``, ``n`` or another accumulator: not a counted loop."""
    b = MethodBuilder("G", "main", params=0)
    regs = b.regs(5)
    i, n, *pool = draw(st.permutations(regs))
    accs = pool[: draw(st.integers(0, 3))]
    if accs and draw(st.integers(0, 3)) == 0:
        accs[draw(st.integers(0, len(accs) - 1))] = draw(st.sampled_from([i, n, *accs]))
    trips = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["above"] * 4 + ["high", "free"]))
    if shape == "above":
        start = draw(draw(st.sampled_from([st.integers(-50, 50)] * 2 + [LOW, st.just(-(2**40))])))
        bound = start + trips
    elif shape == "high":
        bound = draw(HIGH)
        start = bound - trips
    else:
        start = draw(st.one_of(ENTRY, LOW))
        bound = draw(st.one_of(ENTRY, HIGH))
    b.const(i, start)
    b.const(n, bound)
    # In most loops every accumulator holds an int of any size.
    values = draw(st.sampled_from([ACCUMULATED] * 3 + [ENTRY]))
    for a in dict.fromkeys(accs):
        if a not in (i, n):
            b.const(a, draw(values))
    b.label("top")
    b.emit(ins.if_ge(i, n, "out"))
    for a in accs:
        b.emit(ins.binop(Op.ADD, a, a, i))
    b.emit(ins.binop_lit(Op.ADD_LIT, i, i, 1))
    b.emit(ins.goto("top"))
    b.label("out")
    # Return every register, in an array.
    array, index = b.reg(), b.const_new(len(regs))
    b.new_array(array, index)
    for k, reg in enumerate(regs):
        b.const(index, k)
        b.emit(ins.aput(reg, array, index))
    b.emit(ins.ret(array))
    method = b.build()
    return method.instructions, method.registers, 0, False


def _closed_forms(run):
    """Call ``run()``; the results of every call of the counted-loop
    closed form (``dispatch.counted_exit``), on either tier: None where
    it declined, else the trip instructions it charged."""
    results = []
    code = counted_exit.__code__

    def returned(frame, event, arg):
        if event == "return":
            results.append(arg)
        return returned

    def calls(frame, event, arg):
        if frame.f_code is code:
            frame.f_trace_lines = False
            return returned
        return None

    saved = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(saved)
    return results


def _ran_closed_form(run):
    """Call ``run()``; True when a closed form found at least one trip."""
    return any(_closed_forms(run))


#: Tier-1 frames: the profiler's counted frames, untraced frames of a
#: method not yet warm, and traced frames.
TIER1_MODES = ("counted", "cold", "traced")


@contextmanager
def _tier1(runtime, mode):
    """Every frame of ``runtime`` runs tier-1 in ``mode``; yields the
    attached CountingTracer in traced mode, else None."""
    tracer = None
    saved = tier2.WARM_INSTRUCTIONS
    if mode == "counted":
        runtime.interpreter.invocation_counts = {}
    elif mode == "cold":
        tier2.WARM_INSTRUCTIONS = 10**12
    else:
        tracer = CountingTracer()
        runtime.add_tracer(tracer)
    try:
        yield tracer
    finally:
        tier2.WARM_INSTRUCTIONS = saved
        runtime.interpreter.invocation_counts = None
        if tracer is not None:
            runtime.remove_tracer(tracer)


def _tier1_agrees(program, args, budgets, full):
    """Diff every tier-1 mode against the oracle at the full budget and
    at ``budgets``; returns whether the tier-1 closed form ran (found a
    trip) in the full runs of the untraced modes.  A traced frame must
    never call the closed form, and its tracer must see one
    ``on_instr`` per instruction consumed."""
    ref = _runtime(reference_runtime, program)
    expected = {budget: _outcome(ref, args, budget) for budget in (full, *budgets)}
    ran = []
    for mode in TIER1_MODES:
        fast = _runtime(Runtime, program)
        with _tier1(fast, mode) as tracer:
            got = []
            forms = _closed_forms(lambda: got.append(_outcome(fast, args, full)))
            assert got[0] == expected[full], mode
            if tracer is None:
                ran.append(any(forms))
            else:
                assert forms == [] and tracer.instructions == got[0][2]
            for budget in budgets:
                seen = tracer.instructions if tracer is not None else 0
                outcome = _outcome(fast, args, budget)
                assert outcome == expected[budget], (mode, budget)
                if tracer is not None:
                    assert tracer.instructions - seen == outcome[2], (mode, budget)
        assert fast.find_method("G.main")._compiled.tier2 is None, mode
    assert ran[0] == ran[1]
    return ran[0]


def test_counted_loops_match_reference_at_every_budget():
    """Drawn counted loops agree with the oracle at every budget on
    tier-2 and in every tier-1 mode, and the closed form runs in at
    least a quarter of the examples on each tier."""
    closed = []
    tier1 = []

    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(program=counted_loops())
    def check(program):
        _agrees_at_every_budget(program, [], full=COUNTED_FULL)
        fast = _runtime(Runtime, program)
        with _tier2_from_first_call():
            closed.append(_ran_closed_form(lambda: _outcome(fast, [], COUNTED_FULL)))
        consumed = _outcome(_runtime(reference_runtime, program), [], COUNTED_FULL)[2]
        budgets = range(1, min(consumed + 1, COUNTED_FULL) + 1)
        tier1.append(_tier1_agrees(program, [], budgets, COUNTED_FULL))

    check()
    assert sum(closed) >= len(closed) // 4, (sum(closed), len(closed))
    assert sum(tier1) >= len(tier1) // 4, (sum(tier1), len(tier1))


def test_slowdown_loop_runs_in_closed_form():
    """The SLOWDOWN response's busy loop, as the instrumenter emits it:
    the closed form runs on both tiers, and every tier agrees with the
    oracle at the full budget and at every budget near the loop's start
    and end."""
    b = MethodBuilder("G", "main", params=0)
    emit_response(b, ResponseKind.SLOWDOWN, "b0", "G", "App")
    method = b.build()
    counter = next(i for i in method.instructions if i.op is Op.IF_GE).a
    b.emit(ins.ret(counter))
    method = b.build()
    program = (method.instructions, method.registers, 0, False)
    ref = _runtime(reference_runtime, program)
    fast = _runtime(Runtime, program)
    # The loop's three instructions per trip and its last test, plus
    # one of each instruction outside it.
    total = 3 * SLOWDOWN_ITERATIONS + 1 + sum(i.op is not Op.LABEL for i in method.instructions) - 3
    budgets = [*range(1, 12), *range(total - 8, total + 3)]
    with _tier2_from_first_call():
        assert _ran_closed_form(lambda: _outcome(fast, [], 10**6))
        assert _outcome(fast, [], 10**6)[:3] == ("ok", repr(SLOWDOWN_ITERATIONS), total)
        for budget in [*budgets, 10**6]:
            assert _outcome(fast, [], budget) == _outcome(ref, [], budget), budget
    assert _tier1_agrees(program, [], budgets, 10**6)


WARMING = """
.class G
.method main 2
    const r2, 0
    const r3, 0
@top:
    if_ge r2, r0, @out
    add r3, r3, r2
    add_lit r2, r2, 1
    goto @top
@out:
    if_eqz r1, @done
    add_lit r4, r1, -1
    invoke r5, G.main, r0, r4
    add r3, r3, r5
@done:
    return r3
.end
"""


def _warming(calls):
    """(result, warmth, compiled) after each of ``calls`` calls of a
    method that runs a 40-trip counted loop, then calls itself twice
    deeper: the innermost frame starts after two outer loops ran."""
    runtime = Runtime(assemble(WARMING), seed=0)
    main = runtime.find_method("G.main")
    out = []
    for _ in range(calls):
        value = runtime.session().run(main, [40, 2]).value
        out.append((value, main._compiled.warmth, main._compiled.tier2 is not None))
    return out


def test_tier1_closed_form_keeps_warmth_exact(monkeypatch):
    """A tier-1 frame whose counted loop runs in closed form warms its
    method exactly as the step-by-step run does, and the method reaches
    tier-2 on the same call: the trips count when the frame ends, not
    before the recursive frames it starts."""
    assert _ran_closed_form(lambda: _warming(1))
    closed = _warming(3)
    monkeypatch.setattr(dispatch, "counted_exit", lambda regs, loop, budget: None)
    assert not _ran_closed_form(lambda: _warming(1))
    stepped = _warming(3)
    assert closed == stepped
    assert [compiled for _, _, compiled in stepped] == [False, True, True]


#: Loops tier-2 must not run as simple inner loops: one is entered in
#: its middle, the other jumps back to before its head from its body.
LOOP_SHAPES = {
    "entered_mid_body": """
        const r1, 0
        if_eqz r0, @mid
    @top:
        add_lit r1, r1, 1
    @mid:
        add_lit r1, r1, 10
        const r2, 40
        if_lt r1, r2, @top
        return r1
    """,
    "jumps_before_head": """
        const r1, 0
    @pre:
        add_lit r1, r1, 100
    @top:
        add_lit r1, r1, 1
        if_lt r1, r0, @pre
        const r2, 300
        if_lt r1, r2, @top
        return r1
    """,
}


@pytest.mark.parametrize("shape", sorted(LOOP_SHAPES))
@pytest.mark.parametrize("arg", [0, 150, 250])
def test_tier2_loop_shapes_match_reference(shape, arg):
    main = assemble_method(LOOP_SHAPES[shape], class_name="G", name="main", params=1)
    _agrees_at_every_budget((main.instructions, main.registers, 1, False), [arg])


def test_tier2_code_is_named_by_its_source():
    """Each generated source compiles under its own ``<tier2 ...>``
    filename, so a profile tells the methods apart; methods with the
    same generated source share one code object."""
    dex = assemble(HELPERS + """
.class H
.method inc 1
    add_lit r1, r0, 1
    return r1
.end
""")
    runtime = Runtime(dex, seed=0)
    with _tier2_from_first_call():
        for name in ("G.inc", "G.count", "H.inc"):
            runtime.session().run(runtime.find_method(name), [3])
    code = {
        name: runtime.find_method(name)._compiled.tier2.__code__
        for name in ("G.inc", "G.count", "H.inc")
    }
    assert code["G.inc"].co_filename.startswith("<tier2 ")
    assert code["G.inc"].co_filename != code["G.count"].co_filename
    assert code["G.inc"] is code["H.inc"]
