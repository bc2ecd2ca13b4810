"""Symbolic expressions and the path-constraint solver.

This is the constraint-solving half of the symbolic executor.  It is a
small, honest solver for the constraint language our apps produce:

* affine integer chains (``x*3 + 2 == 11``),
* congruences (``x % 8 == 5``),
* orderings and disequalities,
* string equality with literals,
* bitwise ``xor`` with constants (invertible),
* and **uninterpreted hash applications**.

The last is the point of the whole exercise: ``Hash(X|salt) == Hc``
admits no inversion rule, so the solver raises
:class:`UnsolvableConstraint` -- "as cryptographic hash functions
cannot be reversed, no constraint solvers can solve it" (Section 5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SolverError, UnsolvableConstraint

INT_MIN = -(2**31)
INT_MAX = 2**31 - 1

_fresh_counter = itertools.count()


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------


class SymExpr:
    """Base class of symbolic expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Sym(SymExpr):
    """A free variable (input, environment reading, opaque call result)."""

    name: str
    kind: str = "int"  # 'int' | 'str' | 'any'

    @staticmethod
    def fresh(prefix: str, kind: str = "any") -> "Sym":
        return Sym(f"{prefix}#{next(_fresh_counter)}", kind)


@dataclass(frozen=True)
class Const(SymExpr):
    """A concrete value."""

    value: object


@dataclass(frozen=True)
class BinExpr(SymExpr):
    """Integer binary operation; at least one side is usually symbolic."""

    op: str  # add sub mul div rem and or xor shl shr
    left: SymExpr
    right: SymExpr


@dataclass(frozen=True)
class HashExpr(SymExpr):
    """Uninterpreted cryptographic hash of (argument | salt)."""

    arg: SymExpr
    salt: str


@dataclass(frozen=True)
class EqExpr(SymExpr):
    """Boolean-valued equality (e.g. the result of String.equals)."""

    left: SymExpr
    right: SymExpr


@dataclass(frozen=True)
class Constraint:
    """``left <relation> right`` with relation in eq/ne/lt/ge/gt/le."""

    relation: str
    left: SymExpr
    right: SymExpr

    def negated(self) -> "Constraint":
        opposite = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt"}
        return Constraint(opposite[self.relation], self.left, self.right)


class Unsat(SolverError):
    """The path condition is contradictory."""


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

_FOLDS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: int(a / b) if b else None,
    "rem": lambda a, b: a - int(a / b) * b if b else None,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31),
    "shr": lambda a, b: a >> (b & 31),
}


def make_binop(op: str, left: SymExpr, right: SymExpr) -> SymExpr:
    """Build a binop, constant-folding when both sides are concrete."""
    if isinstance(left, Const) and isinstance(right, Const):
        lv, rv = left.value, right.value
        if isinstance(lv, bool):
            lv = int(lv)
        if isinstance(rv, bool):
            rv = int(rv)
        if isinstance(lv, int) and isinstance(rv, int):
            folded = _FOLDS[op](lv, rv)
            if folded is not None:
                return Const(_wrap32(folded))
    return BinExpr(op, left, right)


def _wrap32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value > INT_MAX else value


# ---------------------------------------------------------------------------
# Variable domains
# ---------------------------------------------------------------------------


@dataclass
class _Domain:
    """Accumulated facts about one variable."""

    forced: object = None
    has_forced: bool = False
    lo: int = INT_MIN
    hi: int = INT_MAX
    excluded: set = None
    congruences: list = None  # [(modulus, residue)]
    str_forced: Optional[str] = None
    str_excluded: set = None

    def __post_init__(self) -> None:
        self.excluded = set()
        self.congruences = []
        self.str_excluded = set()


class Solver:
    """Decide satisfiability of a constraint conjunction; build a model.

    ``solve`` returns a model (variable name -> value) when satisfiable,
    raises :class:`Unsat` when contradictory, and raises
    :class:`UnsolvableConstraint` when satisfiability hinges on
    inverting a hash.
    """

    def solve(self, constraints: List[Constraint]) -> Dict[str, object]:
        domains: Dict[str, _Domain] = {}
        for constraint in constraints:
            self._absorb(constraint, domains)
        model: Dict[str, object] = {}
        for name, domain in domains.items():
            model[name] = self._pick(name, domain)
        return model

    # -- constraint absorption ------------------------------------------------

    def _absorb(self, constraint: Constraint, domains: Dict[str, _Domain]) -> None:
        left, relation, right = constraint.left, constraint.relation, constraint.right
        # Normalize: constant on the right.
        if isinstance(left, Const) and not isinstance(right, Const):
            flip = {"eq": "eq", "ne": "ne", "lt": "gt", "ge": "le", "gt": "lt", "le": "ge"}
            left, right, relation = right, left, flip[relation]

        if isinstance(left, Const) and isinstance(right, Const):
            if not _concrete_holds(relation, left.value, right.value):
                raise Unsat(f"concrete contradiction: {left.value} {relation} {right.value}")
            return

        if not isinstance(right, Const):
            # symbolic-vs-symbolic: treat as satisfiable unless both
            # sides are the same hash application compared 'ne'.
            return

        # Reduce the left side toward a bare Sym.
        left, relation, value = self._reduce(left, relation, right.value, domains)
        if left is None:
            return  # reduced away (e.g. congruence recorded)

        if isinstance(left, HashExpr):
            if relation == "eq":
                raise UnsolvableConstraint(
                    "path requires inverting Hash(X|salt) == constant"
                )
            return  # hash != constant: trivially satisfiable

        if isinstance(left, EqExpr):
            # (a == b) <rel> truthy-const
            truthy = bool(value)
            want_equal = truthy if relation == "eq" else not truthy
            inner_rel = "eq" if want_equal else "ne"
            self._absorb(Constraint(inner_rel, left.left, left.right), domains)
            return

        if not isinstance(left, Sym):
            return  # unsupported shape: assume satisfiable (best effort)

        domain = domains.setdefault(left.name, _Domain())
        self._apply_fact(left, domain, relation, value)

    def _reduce(
        self, expr: SymExpr, relation: str, value, domains: Dict[str, _Domain]
    ) -> Tuple[Optional[SymExpr], str, object]:
        """Invert affine/xor/rem layers around the core expression."""
        while isinstance(expr, BinExpr):
            op, left, right = expr.op, expr.left, expr.right
            if isinstance(right, Const) and isinstance(right.value, int):
                c = right.value
                if op == "add":
                    expr, value = left, value - c
                    continue
                if op == "sub":
                    expr, value = left, value + c
                    continue
                if op == "xor":
                    expr, value = left, value ^ c
                    continue
                if op == "mul" and c != 0 and relation in ("eq", "ne"):
                    if value % c != 0:
                        if relation == "eq":
                            raise Unsat("no integer solution to multiplication")
                        return None, relation, value  # ne trivially sat
                    expr, value = left, value // c
                    continue
                if op == "rem" and c > 0 and relation in ("eq", "ne"):
                    core = left
                    if isinstance(core, Sym) and relation == "eq":
                        if not 0 <= value < c and not -c < value <= 0:
                            raise Unsat("residue outside modulus range")
                        domain = domains.setdefault(core.name, _Domain())
                        domain.congruences.append((c, value))
                        return None, relation, value
                    return core if relation == "ne" else None, relation, value
            if isinstance(left, Const) and isinstance(left.value, int):
                c = left.value
                if op == "add":
                    expr, value = right, value - c
                    continue
                if op == "sub":  # c - e == v  =>  e == c - v
                    expr, value = right, c - value
                    continue
                if op == "xor":
                    expr, value = right, value ^ c
                    continue
            break
        return expr, relation, value

    @staticmethod
    def _apply_fact(sym: Sym, domain: _Domain, relation: str, value) -> None:
        if isinstance(value, str) or sym.kind == "str":
            if relation == "eq":
                if domain.str_forced is not None and domain.str_forced != value:
                    raise Unsat(f"{sym.name} forced to two strings")
                if value in domain.str_excluded:
                    raise Unsat(f"{sym.name} equals an excluded string")
                domain.str_forced = value
            elif relation == "ne":
                if domain.str_forced is not None and domain.str_forced == value:
                    raise Unsat(f"{sym.name} both equal and unequal to {value!r}")
                domain.str_excluded.add(value)
            return
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, int):
            return
        if relation == "eq":
            if domain.has_forced and domain.forced != value:
                raise Unsat(f"{sym.name} forced to two values")
            if value in domain.excluded or not domain.lo <= value <= domain.hi:
                raise Unsat(f"{sym.name} == {value} conflicts with domain")
            domain.forced = value
            domain.has_forced = True
        elif relation == "ne":
            if domain.has_forced and domain.forced == value:
                raise Unsat(f"{sym.name} both == and != {value}")
            domain.excluded.add(value)
        elif relation == "lt":
            domain.hi = min(domain.hi, value - 1)
        elif relation == "le":
            domain.hi = min(domain.hi, value)
        elif relation == "gt":
            domain.lo = max(domain.lo, value + 1)
        elif relation == "ge":
            domain.lo = max(domain.lo, value)
        if domain.lo > domain.hi:
            raise Unsat(f"{sym.name} has empty interval")
        if domain.has_forced and not domain.lo <= domain.forced <= domain.hi:
            raise Unsat(f"{sym.name} forced value left the interval")

    # -- model construction ---------------------------------------------------------

    def _pick(self, name: str, domain: _Domain):
        if domain.str_forced is not None:
            return domain.str_forced
        if domain.has_forced:
            value = domain.forced
            for modulus, residue in domain.congruences:
                if value % modulus != residue % modulus:
                    raise Unsat(f"{name} forced value violates congruence")
            return value
        if domain.str_excluded and domain.str_forced is None:
            candidate = "?"
            while candidate in domain.str_excluded:
                candidate += "?"
            return candidate
        # Search for an int satisfying interval + congruences + exclusions.
        start = max(domain.lo, min(domain.hi, 0))
        for offset in range(200_000):
            for candidate in (start + offset, start - offset):
                if not domain.lo <= candidate <= domain.hi:
                    continue
                if candidate in domain.excluded:
                    continue
                if all(candidate % m == r % m for m, r in domain.congruences):
                    return candidate
        raise Unsat(f"no witness found for {name}")


def _concrete_holds(relation: str, a, b) -> bool:
    if isinstance(a, bool):
        a = int(a)
    if isinstance(b, bool):
        b = int(b)
    if relation == "eq":
        return type(a) is type(b) and a == b
    if relation == "ne":
        return not (type(a) is type(b) and a == b)
    try:
        return {"lt": a < b, "ge": a >= b, "gt": a > b, "le": a <= b}[relation]
    except TypeError:
        raise Unsat(f"type mismatch in {relation} comparison") from None
