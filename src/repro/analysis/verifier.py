"""Bytecode verifier: abstract interpretation over :class:`DexMethod` bodies.

The instrumenter performs delicate surgery -- erasing trigger constants,
weaving bodies into encrypted payloads, rewriting switch tables -- and
the paper's resilience argument rests on the result still being a
well-formed program.  This module plays the Dalvik verifier's role for
the repro ISA: a forward dataflow pass over a per-pc register-state
lattice, plus structural checks the dataflow needs to even start.  The
pass runs on the control flow of :mod:`repro.analysis.cfg` (its
successor relation and worklist solver), fed by the verifier's own
label scan so a stale ``label_map()`` cache cannot hide itself.

Lattice (per register)::

        UNINIT          never assigned on any path to this pc
        MAYBE_UNINIT    assigned on some paths only
        INT / STRING / ARRAY / REF
                        assigned on all paths, type known
        VALUE           assigned on all paths, type unknown/merged

Checks and their rule ids (severities in :data:`VERIFIER_RULES`):

======================  =====================================================
``empty-method``        method has no instructions
``duplicate-label``     two LABEL markers share a name
``stale-label-cache``   ``label_map()`` cache disagrees with the instruction
                        list (a structural edit skipped ``invalidate()``)
``reg-out-of-range``    an operand register >= ``method.registers``
``dangling-label``      a branch/switch target has no LABEL
``switch-bad-table``    switch payload is not a non-empty ``{key: label}``
``read-uninit``         read of a register no path ever assigns
``maybe-uninit``        read of a register only some paths assign
``type-mismatch``       operand definitely has a type the opcode rejects
``unreachable-code``    real instructions no path reaches
``fall-off-end``        execution can run past the last instruction
======================  =====================================================

Errors found here are exactly the bugs that would surface at user
devices as crashes (or as detectable anomalies for an adversary), which
is why :meth:`repro.core.bombdroid.BombDroid.protect` can gate on them
in strict mode.

The pass is deliberately *shape-agnostic*: it verifies dataflow and
structure, not invoke spellings, so the mesh planner's morphed bomb
prologues (operand swaps, split compares, decoy compares, per-app alias
symbols -- :mod:`repro.core.mesh`) verify exactly like the classic
Listing-3 shape.  Only genuinely broken surgery fails the gate.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import method_successors, solve_forward
from repro.dex.instructions import Instr
from repro.dex.model import DexFile, DexMethod
from repro.dex.opcodes import BINOPS, LIT_BINOPS, UNCONDITIONAL_EXITS, Op
from repro.lint.diagnostics import Diagnostic, Severity

#: Rule catalog: id -> (default severity, one-line description).
VERIFIER_RULES: Dict[str, Tuple[Severity, str]] = {
    "empty-method": (Severity.ERROR, "method has no instructions"),
    "duplicate-label": (Severity.ERROR, "two labels share one name"),
    "stale-label-cache": (
        Severity.ERROR,
        "label_map() cache is stale: a structural edit skipped invalidate()",
    ),
    "reg-out-of-range": (Severity.ERROR, "operand register outside the register file"),
    "dangling-label": (Severity.ERROR, "branch or switch target label does not exist"),
    "switch-bad-table": (Severity.ERROR, "switch table is not a non-empty {key: label} dict"),
    "read-uninit": (Severity.ERROR, "read of a register no path assigns"),
    "maybe-uninit": (Severity.WARNING, "read of a register only some paths assign"),
    "type-mismatch": (Severity.ERROR, "operand type is definitely wrong for the opcode"),
    "unreachable-code": (Severity.WARNING, "instructions no path reaches"),
    "fall-off-end": (Severity.WARNING, "execution can run past the last instruction"),
}


class RegType(enum.Enum):
    """Abstract value of one register at one pc."""

    UNINIT = "uninit"
    MAYBE_UNINIT = "maybe_uninit"
    INT = "int"
    STRING = "string"
    ARRAY = "array"
    REF = "ref"
    VALUE = "value"   # initialized, type unknown or merged

    @property
    def initialized(self) -> bool:
        return self not in (RegType.UNINIT, RegType.MAYBE_UNINIT)


RegState = Tuple[RegType, ...]

#: Opcodes whose destination is always an int.
_INT_RESULTS = frozenset(BINOPS | LIT_BINOPS | {Op.NEG, Op.NOT, Op.ARRAY_LEN})

#: Opcodes whose destination holds a value of statically unknown type.
_VALUE_RESULTS = frozenset({Op.AGET, Op.IGET, Op.SGET, Op.INVOKE})

#: (op -> register fields that must hold ints at runtime).
_INT_OPERANDS: Dict[Op, Tuple[str, ...]] = {}
for _op in BINOPS - {Op.CMP}:
    _INT_OPERANDS[_op] = ("a", "b")
for _op in LIT_BINOPS:
    _INT_OPERANDS[_op] = ("a",)
_INT_OPERANDS[Op.NEG] = ("a",)
_INT_OPERANDS[Op.NOT] = ("a",)
_INT_OPERANDS[Op.NEW_ARRAY] = ("a",)
_INT_OPERANDS[Op.AGET] = ("b",)
_INT_OPERANDS[Op.APUT] = ("b",)

#: (op -> register fields that must hold arrays at runtime).
_ARRAY_OPERANDS: Dict[Op, Tuple[str, ...]] = {
    Op.AGET: ("a",),
    Op.APUT: ("dst",),
    Op.ARRAY_LEN: ("a",),
}

#: Definitely-typed states that can never satisfy an int operand.
_NEVER_INT = frozenset({RegType.STRING, RegType.ARRAY, RegType.REF})

#: Definitely-typed states that can never satisfy an array operand.
_NEVER_ARRAY = frozenset({RegType.INT, RegType.STRING, RegType.REF})


def _const_type(value: object) -> RegType:
    if isinstance(value, bool) or isinstance(value, int):
        return RegType.INT
    if isinstance(value, str):
        return RegType.STRING
    return RegType.REF  # bytes blobs and null references


def _join(a: RegType, b: RegType) -> RegType:
    if a is b:
        return a
    if not a.initialized or not b.initialized:
        return RegType.MAYBE_UNINIT
    return RegType.VALUE


def _join_states(a: RegState, b: RegState) -> RegState:
    # ``_join(x, x) is x`` for every RegType, so equal inputs join to ``a``.
    if a == b:
        return a
    return tuple([x if x is y else _join(x, y) for x, y in zip(a, b)])


class _MethodVerifier:
    """One verification run over one method."""

    def __init__(self, method: DexMethod) -> None:
        self.method = method
        self.diagnostics: List[Diagnostic] = []

    # -- plumbing ----------------------------------------------------------

    def emit(self, rule: str, message: str, pc: Optional[int] = None,
             end: Optional[int] = None) -> None:
        severity, _ = VERIFIER_RULES[rule]
        span = None
        if pc is not None:
            span = (pc, (end if end is not None else pc + 1))
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=severity,
                message=message,
                method=self.method.qualified_name,
                span=span,
            )
        )

    def _has_errors(self) -> bool:
        return any(diag.is_error for diag in self.diagnostics)

    # -- structural pass ----------------------------------------------------

    def _scan_labels(self) -> Dict[str, int]:
        """Fresh label scan (independent of the method's cache)."""
        labels: Dict[str, int] = {}
        for pc, instr in enumerate(self.method.instructions):
            if instr.op is Op.LABEL:
                if instr.value in labels:
                    self.emit(
                        "duplicate-label",
                        f"label {instr.value!r} already defined at pc "
                        f"{labels[instr.value]}",
                        pc,
                    )
                else:
                    labels[instr.value] = pc
        return labels

    def _check_structure(self) -> None:
        method = self.method
        labels = self._scan_labels()

        cached = method.label_cache()
        if cached is not None and cached != labels:
            self.emit(
                "stale-label-cache",
                "cached label map disagrees with the instruction list "
                "(a structural edit did not call invalidate())",
            )

        for pc, instr in enumerate(method.instructions):
            for reg in (instr.dst, instr.a, instr.b, *instr.args):
                if reg is not None and not 0 <= reg < method.registers:
                    self.emit(
                        "reg-out-of-range",
                        f"register r{reg} outside the register file "
                        f"(method has {method.registers})",
                        pc,
                    )
            if instr.target is not None and instr.target not in labels:
                self.emit("dangling-label", f"undefined target {instr.target!r}", pc)
            if instr.op is Op.SWITCH:
                table = instr.value
                if not isinstance(table, dict) or not table:
                    self.emit("switch-bad-table", "switch payload must be a non-empty dict", pc)
                    continue
                for key, label in table.items():
                    if not isinstance(key, (int, str)):
                        self.emit("switch-bad-table", f"switch key {key!r} is not int or str", pc)
                    if not isinstance(label, str):
                        self.emit(
                            "switch-bad-table", f"switch target {label!r} is not a label name", pc
                        )
                    elif label not in labels:
                        self.emit("dangling-label", f"undefined switch target {label!r}", pc)

    # -- dataflow pass ------------------------------------------------------

    def _transfer(self, state: RegState, instr: Instr) -> RegState:
        op = instr.op
        if instr.dst is None or op in (Op.APUT,):
            return state
        regs = list(state)
        if op is Op.CONST:
            regs[instr.dst] = _const_type(instr.value)
        elif op is Op.MOVE:
            source = state[instr.a] if instr.a is not None else RegType.VALUE
            regs[instr.dst] = source if source.initialized else RegType.VALUE
        elif op in _INT_RESULTS:
            regs[instr.dst] = RegType.INT
        elif op is Op.NEW_ARRAY:
            regs[instr.dst] = RegType.ARRAY
        elif op is Op.NEW_INSTANCE:
            regs[instr.dst] = RegType.REF
        elif op in _VALUE_RESULTS:
            regs[instr.dst] = RegType.VALUE
        else:
            regs[instr.dst] = RegType.VALUE
        return tuple(regs)

    def _run_dataflow(self) -> None:
        method = self.method
        instructions = method.instructions
        entry: RegState = tuple(
            RegType.VALUE if reg < method.params else RegType.UNINIT
            for reg in range(method.registers)
        )
        # Structure passed: the method's label map (cached or built
        # now) equals the fresh scan, and reading it lets the successor
        # memo serve.
        states = solve_forward(
            instructions,
            method_successors(method),
            entry,
            self._transfer,
            _join_states,
        )
        self._report_reads(states)
        self._report_unreachable(states)
        # A reachable last instruction that is no unconditional exit
        # runs off the end: a trailing IF_* or SWITCH still falls
        # through on the no-match path.
        if states[-1] is not None and instructions[-1].op not in UNCONDITIONAL_EXITS:
            self.emit(
                "fall-off-end",
                "control can run past the last instruction "
                "(implicit return_void is almost always a weaving bug)",
                len(instructions) - 1,
            )

    def _report_reads(self, states: List[Optional[RegState]]) -> None:
        instructions = self.method.instructions
        for pc, instr in enumerate(instructions):
            state = states[pc]
            if state is None or instr.op is Op.LABEL:
                continue
            for reg in instr.reads():
                if state[reg] is RegType.UNINIT:
                    self.emit("read-uninit", f"r{reg} is never assigned before this read", pc)
                elif state[reg] is RegType.MAYBE_UNINIT:
                    self.emit(
                        "maybe-uninit",
                        f"r{reg} is unassigned on some paths to this read",
                        pc,
                    )
            for field in _INT_OPERANDS.get(instr.op, ()):
                reg = getattr(instr, field)
                if reg is not None and state[reg] in _NEVER_INT:
                    self.emit(
                        "type-mismatch",
                        f"{instr.op.value} needs an int in r{reg}, "
                        f"found {state[reg].value}",
                        pc,
                    )
            for field in _ARRAY_OPERANDS.get(instr.op, ()):
                reg = getattr(instr, field)
                if reg is not None and state[reg] in _NEVER_ARRAY:
                    self.emit(
                        "type-mismatch",
                        f"{instr.op.value} needs an array in r{reg}, "
                        f"found {state[reg].value}",
                        pc,
                    )

    def _report_unreachable(self, states: List[Optional[RegState]]) -> None:
        instructions = self.method.instructions
        span_start: Optional[int] = None
        for pc in range(len(instructions) + 1):
            dead = (
                pc < len(instructions)
                and states[pc] is None
                and instructions[pc].op not in (Op.LABEL, Op.NOP)
            )
            if dead and span_start is None:
                span_start = pc
            elif not dead and span_start is not None:
                self.emit(
                    "unreachable-code",
                    f"{pc - span_start} instruction(s) unreachable from entry",
                    span_start,
                    end=pc,
                )
                span_start = None

    # -- entry point ---------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        if not self.method.instructions:
            self.emit("empty-method", "method has no instructions")
            return self.diagnostics
        self._check_structure()
        # Dataflow needs resolvable targets and in-range registers; bail
        # once structure is broken rather than masking the root cause.
        if not self._has_errors():
            self._run_dataflow()
        return self.diagnostics


def verify_method(method: DexMethod) -> List[Diagnostic]:
    """All verifier diagnostics for one method."""
    return _MethodVerifier(method).run()


def verify_dex(dex: DexFile) -> List[Diagnostic]:
    """All verifier diagnostics for every method of ``dex``."""
    out: List[Diagnostic] = []
    for method in dex.iter_methods():
        out.extend(verify_method(method))
    return out
