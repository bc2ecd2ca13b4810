"""Symbolic execution over the repro ISA (the TriggerScope role).

Explores a method's paths with symbolic inputs, accumulating path
constraints.  At each conditional the solver decides which sides are
feasible; paths requiring a hash preimage are *blocked* -- the explorer
records the blockage (the bomb is found, its payload is not exposed),
which is exactly how the paper argues G1.

Against the naive baseline and SSN the same engine wins: the trigger
``X == c`` solves immediately (yielding a concrete triggering input),
``rand() < threshold`` is just a satisfiable input constraint, and a
plaintext key comparison leaks the key constant to the attacker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.apk.package import Apk
from repro.attacks.base import AttackResult
from repro.attacks.solver import (
    Const,
    Constraint,
    EqExpr,
    HashExpr,
    Solver,
    Sym,
    SymExpr,
    Unsat,
    make_binop,
)
from repro.dex.model import DexMethod
from repro.dex.opcodes import Op
from repro.errors import UnsolvableConstraint
from repro.vm.events import declared_events, handler_name_for

_BINOP_NAMES = {
    Op.ADD: "add", Op.SUB: "sub", Op.MUL: "mul", Op.DIV: "div", Op.REM: "rem",
    Op.AND: "and", Op.OR: "or", Op.XOR: "xor", Op.SHL: "shl", Op.SHR: "shr",
}
_LIT_BINOP_NAMES = {
    Op.ADD_LIT: "add", Op.SUB_LIT: "sub", Op.MUL_LIT: "mul", Op.DIV_LIT: "div",
    Op.REM_LIT: "rem", Op.AND_LIT: "and", Op.OR_LIT: "or", Op.XOR_LIT: "xor",
}
_COMPARES = {
    Op.IF_EQ: "eq", Op.IF_NE: "ne", Op.IF_LT: "lt",
    Op.IF_GE: "ge", Op.IF_GT: "gt", Op.IF_LE: "le",
}

_DETECTION_APIS = (
    "android.pm.get_public_key",
    "android.pm.get_manifest_digest",
    "android.pm.get_method_hash",
)


@dataclass
class PathResult:
    """One explored path."""

    method: str
    status: str                      # completed | hash_blocked | crash | budget
    constraints: List[Constraint] = field(default_factory=list)
    model: Optional[Dict[str, object]] = None
    detection_reached: bool = False
    leaked_key_constants: List[str] = field(default_factory=list)
    bomb_sites_seen: Set[str] = field(default_factory=set)
    hash_walls: int = 0
    reflection_targets: List[str] = field(default_factory=list)


@dataclass
class _State:
    pc: int
    registers: Dict[int, SymExpr]
    statics: Dict[str, SymExpr]
    constraints: List[Constraint]
    steps: int = 0
    bomb_sites: Set[str] = field(default_factory=set)
    detection: bool = False
    leaked: List[str] = field(default_factory=list)
    reflections: List[str] = field(default_factory=list)
    hash_walls: int = 0

    def fork(self, pc: int) -> "_State":
        return _State(
            pc=pc,
            registers=dict(self.registers),
            statics=dict(self.statics),
            constraints=list(self.constraints),
            steps=self.steps,
            bomb_sites=set(self.bomb_sites),
            detection=self.detection,
            leaked=list(self.leaked),
            reflections=list(self.reflections),
            hash_walls=self.hash_walls,
        )


class SymbolicExplorer:
    """Bounded DFS path exploration of one method."""

    def __init__(
        self,
        concrete_statics: Optional[Dict[str, object]] = None,
        max_paths: int = 128,
        max_steps: int = 3000,
    ) -> None:
        self._concrete_statics = concrete_statics or {}
        self._max_paths = max_paths
        self._max_steps = max_steps
        self._solver = Solver()
        #: paths blocked by unsolvable hash constraints (explorer-wide:
        #: blocked forks are discarded, so per-path counters would lose
        #: exactly the events we care about).
        self.hash_walls = 0

    # ------------------------------------------------------------------

    def explore_method(self, method: DexMethod) -> List[PathResult]:
        initial = _State(
            pc=0,
            registers={
                index: Sym(f"arg{index}", "any") for index in range(method.params)
            },
            statics={},
            constraints=[],
        )
        results: List[PathResult] = []
        stack = [initial]
        labels = method.label_map()

        while stack and len(results) < self._max_paths:
            state = stack.pop()
            result = self._run_path(method, state, stack, labels)
            if result is not None:
                results.append(result)
        return results

    # ------------------------------------------------------------------

    def _run_path(
        self,
        method: DexMethod,
        state: _State,
        stack: List[_State],
        labels: Dict[str, int],
    ) -> Optional[PathResult]:
        instructions = method.instructions
        regs = state.registers

        while state.pc < len(instructions):
            if state.steps > self._max_steps:
                return self._finish(method, state, "budget")
            state.steps += 1
            instr = instructions[state.pc]
            op = instr.op

            if op is Op.LABEL or op is Op.NOP:
                state.pc += 1
                continue
            if op is Op.CONST:
                regs[instr.dst] = Const(instr.value)
            elif op is Op.MOVE:
                regs[instr.dst] = regs.get(instr.a, Sym.fresh("undef"))
            elif op in _BINOP_NAMES:
                regs[instr.dst] = make_binop(
                    _BINOP_NAMES[op],
                    regs.get(instr.a, Sym.fresh("undef")),
                    regs.get(instr.b, Sym.fresh("undef")),
                )
            elif op in _LIT_BINOP_NAMES:
                regs[instr.dst] = make_binop(
                    _LIT_BINOP_NAMES[op],
                    regs.get(instr.a, Sym.fresh("undef")),
                    Const(instr.value),
                )
            elif op in (Op.NEG, Op.NOT):
                regs[instr.dst] = make_binop(
                    "sub" if op is Op.NEG else "xor",
                    Const(0 if op is Op.NEG else -1),
                    regs.get(instr.a, Sym.fresh("undef")),
                )
            elif op is Op.CMP:
                regs[instr.dst] = Sym.fresh("cmp")
            elif op is Op.GOTO:
                state.pc = labels[instr.target]
                continue
            elif op in _COMPARES:
                return self._branch(
                    method, state, stack, labels,
                    Constraint(_COMPARES[op],
                               regs.get(instr.a, Sym.fresh("undef")),
                               regs.get(instr.b, Sym.fresh("undef"))),
                    labels[instr.target],
                )
            elif op in (Op.IF_EQZ, Op.IF_NEZ, Op.IF_LTZ, Op.IF_GEZ):
                relation = {
                    Op.IF_EQZ: "eq", Op.IF_NEZ: "ne",
                    Op.IF_LTZ: "lt", Op.IF_GEZ: "ge",
                }[op]
                return self._branch(
                    method, state, stack, labels,
                    Constraint(relation,
                               regs.get(instr.a, Sym.fresh("undef")),
                               Const(0)),
                    labels[instr.target],
                )
            elif op is Op.SWITCH:
                return self._switch(method, state, stack, labels, instr)
            elif op in (Op.RETURN, Op.RETURN_VOID):
                return self._finish(method, state, "completed")
            elif op is Op.THROW:
                return self._finish(method, state, "crash")
            elif op is Op.SGET:
                regs[instr.dst] = self._static(state, instr.value)
            elif op is Op.SPUT:
                state.statics[instr.value] = regs.get(instr.a, Sym.fresh("undef"))
            elif op in (Op.NEW_INSTANCE, Op.NEW_ARRAY, Op.AGET, Op.ARRAY_LEN, Op.IGET):
                if instr.dst is not None:
                    regs[instr.dst] = Sym.fresh("heap")
            elif op in (Op.APUT, Op.IPUT):
                pass  # heap summarized away
            elif op is Op.INVOKE:
                self._invoke(state, instr)
            state.pc += 1

        return self._finish(method, state, "completed")

    # ------------------------------------------------------------------

    def _static(self, state: _State, name: str) -> SymExpr:
        if name in state.statics:
            return state.statics[name]
        if name in self._concrete_statics:
            value = self._concrete_statics[name]
            if isinstance(value, (int, str, bool, type(None))):
                return Const(value)
        fresh = Sym(f"static:{name}", "any")
        state.statics[name] = fresh
        return fresh

    def _invoke(self, state: _State, instr) -> None:
        name = instr.value
        regs = state.registers
        args = [regs.get(r, Sym.fresh("undef")) for r in instr.args]

        result: SymExpr
        folded = _fold_library_call(name, args)
        if folded is not None:
            if instr.dst is not None:
                regs[instr.dst] = folded
            return
        if name == "java.str.equals":
            result = EqExpr(args[0], args[1])
        elif name == "bomb.hash":
            salt = args[1].value if isinstance(args[1], Const) else "?"
            bomb_id = args[2].value if len(args) > 2 and isinstance(args[2], Const) else "?"
            state.bomb_sites.add(str(bomb_id))
            result = HashExpr(args[0], str(salt))
        elif name in ("bomb.derive", "bomb.decrypt", "bomb.load_run"):
            # Reaching here needs a solved hash; treated as opaque.
            result = Sym.fresh("opaque")
        elif name in _DETECTION_APIS:
            state.detection = True
            result = Sym("pubkey" if name.endswith("public_key") else "digest", "str")
        elif name == "android.reflect.call":
            result = Sym.fresh("reflect", "str")
            if isinstance(args[0], Const):
                target = str(args[0].value)
                state.reflections.append(target)
                if target in _DETECTION_APIS:
                    state.detection = True
                    # The attacker now knows this value IS the public
                    # key: any comparison against it leaks the constant.
                    result = Sym("pubkey", "str")
        elif name == "android.env.get":
            env_name = args[0].value if isinstance(args[0], Const) else "?"
            result = Sym(f"env:{env_name}", "any")
        elif name == "java.rand.next":
            result = Sym.fresh("rand", "int")
            bound = args[0]
            state.constraints.append(Constraint("ge", result, Const(0)))
            if isinstance(bound, Const):
                state.constraints.append(Constraint("lt", result, bound))
        elif name == "java.str.length":
            result = Sym.fresh("strlen", "int")
        elif name.startswith("java.str."):
            if isinstance(args[0], Const) and all(isinstance(a, Const) for a in args):
                result = Sym.fresh("strfold", "any")
            else:
                result = Sym.fresh("strop", "any")
        else:
            result = Sym.fresh(f"call:{name}", "any")

        if instr.dst is not None:
            regs[instr.dst] = result

        # A plaintext key comparison leaks the constant to the attacker.
        if isinstance(result, EqExpr):
            for side, other in ((result.left, result.right), (result.right, result.left)):
                if (
                    isinstance(side, Sym)
                    and side.name in ("pubkey", "digest")
                    and isinstance(other, Const)
                ):
                    state.leaked.append(str(other.value))

    # ------------------------------------------------------------------

    def _branch(
        self,
        method: DexMethod,
        state: _State,
        stack: List[_State],
        labels: Dict[str, int],
        constraint: Constraint,
        target_pc: int,
    ) -> Optional[PathResult]:
        taken = state.fork(target_pc)
        taken.constraints.append(constraint)
        fall = state
        fall.constraints.append(constraint.negated())
        fall.pc += 1

        taken_ok = self._feasible(taken)
        fall_ok = self._feasible(fall)

        if taken_ok and fall_ok:
            stack.append(taken)
            return self._run_path(method, fall, stack, labels)
        if taken_ok:
            return self._run_path(method, taken, stack, labels)
        if fall_ok:
            return self._run_path(method, fall, stack, labels)
        return self._finish(method, state, "unsat")

    def _switch(self, method, state, stack, labels, instr) -> Optional[PathResult]:
        subject = state.registers.get(instr.a, Sym.fresh("undef"))
        branches: List[_State] = []
        default = state.fork(state.pc + 1)
        for key, label in instr.value.items():
            case = state.fork(labels[label])
            case.constraints.append(Constraint("eq", subject, Const(key)))
            default.constraints.append(Constraint("ne", subject, Const(key)))
            if self._feasible(case):
                branches.append(case)
        if self._feasible(default):
            branches.append(default)
        if not branches:
            return self._finish(method, state, "unsat")
        first, rest = branches[0], branches[1:]
        stack.extend(rest)
        return self._run_path(method, first, stack, method.label_map())

    def _feasible(self, state: _State) -> bool:
        try:
            self._solver.solve(state.constraints)
            return True
        except Unsat:
            return False
        except UnsolvableConstraint:
            self.hash_walls += 1
            state.hash_walls += 1
            return False

    def _finish(self, method: DexMethod, state: _State, status: str) -> PathResult:
        model = None
        if status in ("completed", "crash"):
            try:
                model = self._solver.solve(state.constraints)
            except (Unsat, UnsolvableConstraint):
                model = None
        return PathResult(
            method=method.qualified_name,
            status=status,
            constraints=state.constraints,
            model=model,
            detection_reached=state.detection,
            leaked_key_constants=state.leaked,
            bomb_sites_seen=state.bomb_sites,
            hash_walls=state.hash_walls,
            reflection_targets=state.reflections,
        )


class SymbolicAttack:
    """Whole-app symbolic sweep: explore every event handler."""

    def __init__(
        self,
        concrete_statics: Optional[Dict[str, object]] = None,
        max_paths: int = 64,
        max_steps: int = 2500,
    ) -> None:
        self._statics = concrete_statics
        self._max_paths = max_paths
        self._max_steps = max_steps

    def run(self, apk: Apk) -> AttackResult:
        dex = apk.dex()
        explorer = SymbolicExplorer(
            concrete_statics=self._statics,
            max_paths=self._max_paths,
            max_steps=self._max_steps,
        )
        all_paths: List[PathResult] = []
        for kind, class_name in declared_events(dex):
            method = dex.classes[class_name].methods[handler_name_for(kind)]
            all_paths.extend(explorer.explore_method(method))

        detection_paths = [
            p for p in all_paths if p.detection_reached and p.model is not None
        ]
        hash_walls = explorer.hash_walls
        bomb_sites = set()
        for path in all_paths:
            bomb_sites |= path.bomb_sites_seen
        leaked = sorted({key for p in all_paths for key in p.leaked_key_constants})
        reflections = sorted({t for p in all_paths for t in p.reflection_targets})

        return AttackResult(
            attack="symbolic_execution",
            defeated_defense=bool(detection_paths),
            bombs_found=sorted(bomb_sites),
            bombs_exposed=[p.method for p in detection_paths],
            details={
                "paths_explored": len(all_paths),
                "hash_walls": hash_walls,
                "detection_paths": len(detection_paths),
                "leaked_key_constants": leaked,
                "reflection_targets": reflections,
                "trigger_models": [
                    p.model for p in detection_paths[:5] if p.model
                ],
            },
            notes=(
                f"{hash_walls} paths blocked by unsolvable hash constraints"
                if hash_walls
                else "no hash obstacles encountered"
            ),
        )


_STR_FOLDS = {
    "java.str.equals": lambda a, b: a == b,
    "java.str.starts_with": lambda a, b: a.startswith(b),
    "java.str.ends_with": lambda a, b: a.endswith(b),
    "java.str.contains": lambda a, b: b in a,
    "java.str.length": lambda a: len(a),
    "java.str.concat": lambda a, b: a + (str(b) if isinstance(b, int) else b),
    "java.str.substring": lambda a, i, j: a[i:j],
    "java.str.char_at": lambda a, i: ord(a[i]),
    "java.str.index_of": lambda a, b: a.find(b),
    "java.str.from_int": lambda a: str(a),
    "java.str.to_int": lambda a: int(a),
    "java.math.abs": abs,
    "java.math.min": min,
    "java.math.max": max,
}


def _fold_library_call(name: str, args) -> Optional[Const]:
    """Concretely evaluate a pure library call when every operand is a
    constant -- this is what lets the engine walk straight through
    SSN's string-deobfuscation loop and read the reflection target."""
    fold = _STR_FOLDS.get(name)
    if fold is None:
        return None
    if not all(isinstance(a, Const) for a in args):
        return None
    try:
        return Const(fold(*(a.value for a in args)))
    except Exception:
        return None
