"""Inner (environment-sensitive) trigger conditions.

Section 6: the inner condition is a quantifier-free first-order formula
of constraints ``f(env) op r`` with ``op ∈ {<, >, ==, !=}``, joined by
``&&``/``||``, constructed so each condition is satisfied with a target
probability p ∈ [0.1, 0.2] *across the device population* -- not per
evaluation: "the bomb may never be activated on that device until the
environment condition is met".

The generator consults :data:`repro.vm.device.ENV_DOMAINS` the way the
paper consults the Android Dashboards / AppBrain statistics.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.dex.builder import MethodBuilder
from repro.dex.instructions import Instr
from repro.dex.opcodes import Op
from repro.vm.device import ChoiceDomain, DeviceProfile, ENV_DOMAINS, IntDomain


class CmpOp(enum.Enum):
    LT = "<"
    GT = ">"
    EQ = "=="
    NE = "!="


@dataclass(frozen=True)
class Constraint:
    """One ``env_var op value`` constraint."""

    env_name: str
    op: CmpOp
    value: object

    def evaluate(self, profile: DeviceProfile) -> bool:
        actual = profile.get(self.env_name)
        if self.op is CmpOp.EQ:
            return actual == self.value
        if self.op is CmpOp.NE:
            return actual != self.value
        if self.op is CmpOp.LT:
            return actual < self.value
        if self.op is CmpOp.GT:
            return actual > self.value
        raise AssertionError(self.op)

    def probability(self) -> float:
        """P(constraint holds) for a device drawn from the population."""
        domain = ENV_DOMAINS[self.env_name]
        if isinstance(domain, IntDomain):
            lo, hi, size = domain.lo, domain.hi, domain.size
            if self.op is CmpOp.EQ:
                return (1.0 / size) if lo <= self.value <= hi else 0.0
            if self.op is CmpOp.NE:
                return 1.0 - ((1.0 / size) if lo <= self.value <= hi else 0.0)
            if self.op is CmpOp.LT:
                covered = max(0, min(self.value - 1, hi) - lo + 1)
                return covered / size
            if self.op is CmpOp.GT:
                covered = max(0, hi - max(self.value + 1, lo) + 1)
                return covered / size
        if isinstance(domain, ChoiceDomain):
            if self.op is CmpOp.EQ:
                return domain.probability_of(lambda v: v == self.value)
            if self.op is CmpOp.NE:
                return domain.probability_of(lambda v: v != self.value)
            if self.op is CmpOp.LT:
                return domain.probability_of(lambda v: v < self.value)
            if self.op is CmpOp.GT:
                return domain.probability_of(lambda v: v > self.value)
        raise TypeError(f"unsupported domain for {self.env_name}")

    def describe(self) -> str:
        return f"env[{self.env_name}] {self.op.value} {self.value!r}"


class Connective(enum.Enum):
    AND = "&&"
    OR = "||"


def _holds(constraint: Constraint, value) -> bool:
    if constraint.op is CmpOp.EQ:
        return value == constraint.value
    if constraint.op is CmpOp.NE:
        return value != constraint.value
    if constraint.op is CmpOp.LT:
        return value < constraint.value
    return value > constraint.value


def _group_measure(name: str, group: Sequence[Constraint], require_all: bool) -> float:
    """Probability mass of the domain of ``name`` satisfying the group."""
    domain = ENV_DOMAINS[name]
    combine = all if require_all else any
    if isinstance(domain, IntDomain):
        # Every ``_holds`` is constant between consecutive cut points,
        # so one test at each segment's start counts the whole segment.
        end = domain.hi + 1
        cuts = {domain.lo, end}
        for c in group:
            cuts.update((c.value, c.value + 1))
        points = sorted(p for p in cuts if domain.lo <= p <= end)
        hits = sum(
            stop - start
            for start, stop in zip(points, points[1:])
            if combine(_holds(c, start) for c in group)
        )
        return hits / domain.size
    total = sum(weight for _, weight in domain.choices)
    hit = sum(
        weight
        for value, weight in domain.choices
        if combine(_holds(c, value) for c in group)
    )
    return hit / total if total else 0.0


@dataclass(frozen=True)
class InnerCondition:
    """A conjunction or disjunction of constraints."""

    constraints: Tuple[Constraint, ...]
    connective: Connective = Connective.AND

    def evaluate(self, profile: DeviceProfile) -> bool:
        results = (c.evaluate(profile) for c in self.constraints)
        return all(results) if self.connective is Connective.AND else any(results)

    def probability(self) -> float:
        """P(met) for a device drawn from the population.

        Exact within each variable (constraints on the same variable
        are combined over its domain, so ``101 < C < 132`` measures
        30/256, not a product of marginals); distinct variables are
        treated as independent, which they are in the sampler.
        """
        groups: dict = {}
        for constraint in self.constraints:
            groups.setdefault(constraint.env_name, []).append(constraint)
        if self.connective is Connective.AND:
            product = 1.0
            for name, group in groups.items():
                product *= _group_measure(name, group, require_all=True)
            return product
        miss = 1.0
        for name, group in groups.items():
            miss *= 1.0 - _group_measure(name, group, require_all=False)
        return 1.0 - miss

    def describe(self) -> str:
        joiner = f" {self.connective.value} "
        return joiner.join(c.describe() for c in self.constraints)

    # -- code generation --------------------------------------------------

    def emit(self, builder: MethodBuilder) -> int:
        """Emit evaluation bytecode; returns the register holding the
        boolean result.  This code ends up *inside* the encrypted
        payload, so attackers cannot read which environment is tested.
        """
        result = builder.reg()
        is_and = self.connective is Connective.AND
        builder.const(result, is_and)  # AND starts true, OR starts false
        done = builder.fresh_label("inner_done")
        for constraint in self.constraints:
            value_reg = builder.reg()
            name_reg = builder.const_new(constraint.env_name)
            builder.invoke(value_reg, "android.env.get", (name_reg,))
            test_reg = self._emit_test(builder, constraint, value_reg)
            if is_and:
                # One false constraint decides the conjunction.
                fail = builder.fresh_label("c_ok")
                builder.if_nez(test_reg, fail)
                builder.const(result, False)
                builder.goto(done)
                builder.label(fail)
            else:
                # One true constraint decides the disjunction.
                miss = builder.fresh_label("c_miss")
                builder.if_eqz(test_reg, miss)
                builder.const(result, True)
                builder.goto(done)
                builder.label(miss)
        builder.label(done)
        return result

    @staticmethod
    def _emit_test(builder: MethodBuilder, constraint: Constraint, value_reg: int) -> int:
        """Emit one constraint test; returns a bool/int register that is
        nonzero iff the constraint holds."""
        test = builder.reg()
        if isinstance(constraint.value, str):
            expect = builder.const_new(constraint.value)
            builder.invoke(test, "java.str.equals", (value_reg, expect))
            if constraint.op is CmpOp.NE:
                negated = builder.reg()
                builder.emit(Instr(Op.NOT, dst=negated, a=test))
                return negated
            return test
        expect = builder.const_new(constraint.value)
        true_label = builder.fresh_label("cmp_t")
        end_label = builder.fresh_label("cmp_e")
        branch = {
            CmpOp.EQ: builder.if_eq,
            CmpOp.NE: builder.if_ne,
            CmpOp.LT: builder.if_lt,
            CmpOp.GT: builder.if_gt,
        }[constraint.op]
        branch(value_reg, expect, true_label)
        builder.const(test, False)
        builder.goto(end_label)
        builder.label(true_label)
        builder.const(test, True)
        builder.label(end_label)
        return test


@dataclass(frozen=True)
class ProbedCondition:
    """An inner condition OR-combined with anti-analysis probes.

    The mesh planner wraps the probabilistic inner condition so that
    detection *also* runs whenever an analysis probe fires --
    ``bomb.probe("debugger")`` (a tracer is attached) or
    ``bomb.probe("hooks")`` (the framework handler table was tampered
    with).  On a clean user device every probe is false and the wrapped
    condition behaves exactly like the bare one, so the population-level
    satisfaction probability (Table 3's expectation) is unchanged --
    :meth:`probability` delegates to the inner condition.

    Duck-types :class:`InnerCondition`'s evaluate/probability/describe/
    emit surface so the payload builder and evaluation harness need no
    special cases.
    """

    inner: Optional[InnerCondition]
    probes: Tuple[str, ...] = ()

    def evaluate(self, profile: DeviceProfile) -> bool:
        """Population-side evaluation: probes are analysis-environment
        facts, never true on a sampled user device."""
        return self.inner.evaluate(profile) if self.inner is not None else False

    def probability(self) -> float:
        return self.inner.probability() if self.inner is not None else 0.0

    def describe(self) -> str:
        parts = [f"probe[{kind}]" for kind in self.probes]
        if self.inner is not None:
            parts.append(f"({self.inner.describe()})")
        return " || ".join(parts) if parts else "never"

    def emit(self, builder: MethodBuilder) -> int:
        """Probes short-circuit to true; otherwise fall back to the
        inner condition's own evaluation code."""
        result = builder.reg()
        builder.const(result, False)
        done = builder.fresh_label("probed_done")
        for kind in self.probes:
            kind_reg = builder.const_new(kind)
            hit = builder.reg()
            builder.invoke(hit, "bomb.probe", (kind_reg,))
            miss = builder.fresh_label("probe_miss")
            builder.if_eqz(hit, miss)
            builder.const(result, True)
            builder.goto(done)
            builder.label(miss)
        if self.inner is not None:
            inner_reg = self.inner.emit(builder)
            builder.if_eqz(inner_reg, done)
            builder.const(result, True)
        builder.label(done)
        return result


def build_inner_condition(
    rng: random.Random,
    probability_range: Tuple[float, float] = (0.1, 0.2),
    max_attempts: int = 200,
) -> InnerCondition:
    """Construct a random inner condition whose population-level
    satisfaction probability falls in ``probability_range``.

    Strategy: draw a target p, then either carve an interval of an int
    domain (``lo < env < hi`` style, like the paper's
    ``101 < C < 132`` IP example) or build an equality/disjunction over
    a choice domain; verify the achieved probability and retry on miss.
    """
    lo_target, hi_target = probability_range
    int_names = [n for n, d in ENV_DOMAINS.items() if isinstance(d, IntDomain)]
    choice_names = [n for n, d in ENV_DOMAINS.items() if isinstance(d, ChoiceDomain)]
    # Time and sensor readings vary *within* a session; device-identity
    # variables only vary *across* devices.  Most conditions should pin
    # identity (that is what separates the lab from the population), a
    # minority may ride the clock.
    dynamic = [n for n in int_names if n.startswith(("time.", "sensor."))]
    static_ints = [n for n in int_names if n not in dynamic]

    for _ in range(max_attempts):
        target = rng.uniform(lo_target, hi_target)
        if rng.random() < 0.6 and int_names:
            if dynamic and rng.random() < 0.2:
                name = rng.choice(dynamic)
            else:
                name = rng.choice(static_ints or int_names)
            domain: IntDomain = ENV_DOMAINS[name]
            width = max(1, round(target * domain.size))
            if width >= domain.size:
                continue
            start = rng.randint(domain.lo, domain.hi - width)
            condition = InnerCondition(
                constraints=(
                    Constraint(name, CmpOp.GT, start - 1),
                    Constraint(name, CmpOp.LT, start + width),
                ),
                connective=Connective.AND,
            )
        elif choice_names:
            name = rng.choice(choice_names)
            domain: ChoiceDomain = ENV_DOMAINS[name]
            values = list(domain.choices)
            rng.shuffle(values)
            picked: List = []
            mass = 0.0
            total = sum(weight for _, weight in domain.choices)
            for value, weight in values:
                if mass >= target:
                    break
                picked.append(value)
                mass += weight / total
            if not picked or len(picked) == len(values):
                continue
            condition = InnerCondition(
                constraints=tuple(Constraint(name, CmpOp.EQ, v) for v in picked),
                connective=Connective.OR,
            )
        else:
            continue
        achieved = condition.probability()
        if lo_target * 0.5 <= achieved <= hi_target * 1.5:
            return condition
    raise RuntimeError("could not construct an inner condition in range")
