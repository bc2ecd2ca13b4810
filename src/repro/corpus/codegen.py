"""Random-but-runnable method body generation.

The generator produces code with the *structural features BombDroid
cares about* -- equality conditions against constants (weak/medium/
strong mix), switches, loops, environment-variable reads, static-field
state -- while guaranteeing the result executes without faults under
any event stream: loops are bounded, division is by nonzero literals,
registers are type-tracked (int vs string) so no operation sees an
operand of the wrong type.

Satisfiability of the generated QCs is deliberately mixed, because the
fuzzing experiments (Table 4) hinge on it:

* *easy* -- ``param % m == k``: a random fuzzer hits it in ~m tries;
* *moderate* -- exact equality with a small input domain (menu ids,
  key codes);
* *hard* -- equality between an app field and a rare value, or with a
  string outside the fuzzers' dictionaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.dex.builder import MethodBuilder
from repro.dex.model import DexMethod
from repro.vm.device import ChoiceDomain, ENV_DOMAINS, IntDomain
from repro.vm.events import EventKind

#: Words some string QCs use; overlaps with the fuzzers' text dictionary
#: so a fraction of string conditions is reachable by fuzzing.
COMMON_WORDS = (
    "hello", "test", "fish", "route", "note", "map", "journal", "calendar",
    "beat", "hash", "log", "pause", "play", "save", "load", "north",
)

#: Words no fuzzer dictionary contains (hard string QCs).
RARE_WORDS = (
    "xyzzy_warp", "qmlrt_gate", "zpt_unlock_77", "kv9_secret", "jjq_mode",
    "wqx_trigger", "uu7_panel", "grv_stage4",
)

_STR_ENVS = tuple(
    name
    for name, domain in ENV_DOMAINS.items()
    if isinstance(domain, ChoiceDomain) and isinstance(domain.choices[0][0], str)
)
_INT_ENVS = tuple(
    name
    for name, domain in ENV_DOMAINS.items()
    if isinstance(domain, IntDomain)
    or (isinstance(domain, ChoiceDomain) and isinstance(domain.choices[0][0], int))
)

#: Handler parameter types by event kind.
HANDLER_PARAM_TYPES: Dict[EventKind, Tuple[str, ...]] = {
    EventKind.TOUCH: ("int", "int"),
    EventKind.LONG_PRESS: ("int", "int"),
    EventKind.KEY: ("int",),
    EventKind.TEXT: ("str",),
    EventKind.MENU: ("int",),
    EventKind.SCROLL: ("int",),
    EventKind.BACK: (),
    EventKind.TICK: ("int",),
    EventKind.SENSOR: ("int",),
}


@dataclass
class AppPlan:
    """Shared generation context for one app."""

    rng: random.Random
    class_names: List[str]
    int_fields: List[str] = field(default_factory=list)   # qualified names
    str_fields: List[str] = field(default_factory=list)
    bool_fields: List[str] = field(default_factory=list)
    helpers: List[Tuple[str, int]] = field(default_factory=list)  # (name, params)
    env_quota: int = 0
    qc_quota: int = 0
    env_used: int = 0
    qcs_emitted: int = 0


class MethodGenerator:
    """Generates one method body."""

    def __init__(self, plan: AppPlan) -> None:
        self._plan = plan
        self._rng = plan.rng

    # -- public -----------------------------------------------------------

    def generate(
        self,
        class_name: str,
        method_name: str,
        param_types: Sequence[str],
        target_length: int,
        returns_int: bool = False,
        force_qcs: int = 0,
    ) -> DexMethod:
        builder = MethodBuilder(class_name, method_name, params=len(param_types))
        int_regs = [i for i, t in enumerate(param_types) if t == "int"]
        str_regs = [i for i, t in enumerate(param_types) if t == "str"]
        state = _MethodState(builder, int_regs, str_regs)

        for _ in range(force_qcs):
            self._emit_qc(state)
        while len(builder._instructions) < target_length:
            self._emit_statement(state)

        if returns_int:
            builder.ret(self._int_source(state))
        else:
            builder.ret_void()
        return builder.build()

    # -- statement selection -----------------------------------------------

    def _emit_statement(self, state: "_MethodState") -> None:
        plan = self._plan
        rng = self._rng
        choices = [
            (self._emit_arith, 24),
            (self._emit_field_update, 16),
            (self._emit_compare_branch, 10),
            (self._emit_loop, 11),
            (self._emit_string_op, 8),
            (self._emit_log, 3),
        ]
        if plan.qcs_emitted < plan.qc_quota:
            choices.append((self._emit_qc, 18))
        if plan.env_used < plan.env_quota:
            choices.append((self._emit_env_read, 8))
        if plan.helpers:
            choices.append((self._emit_helper_call, 8))
        emitters, weights = zip(*choices)
        rng.choices(emitters, weights=weights, k=1)[0](state)

    # -- sources ---------------------------------------------------------------

    def _int_source(self, state: "_MethodState") -> int:
        rng = self._rng
        plan = self._plan
        if state.int_regs and rng.random() < 0.6:
            return rng.choice(state.int_regs)
        reg = state.builder.reg()
        if plan.int_fields and rng.random() < 0.6:
            state.builder.sget(reg, rng.choice(plan.int_fields))
        else:
            state.builder.const(reg, rng.randrange(0, 1000))
        state.int_regs.append(reg)
        return reg

    def _str_source(self, state: "_MethodState") -> int:
        rng = self._rng
        plan = self._plan
        if state.str_regs and rng.random() < 0.5:
            return rng.choice(state.str_regs)
        reg = state.builder.reg()
        if plan.str_fields and rng.random() < 0.6:
            state.builder.sget(reg, rng.choice(plan.str_fields))
        else:
            state.builder.const(reg, rng.choice(COMMON_WORDS + RARE_WORDS))
        state.str_regs.append(reg)
        return reg

    # -- emitters ------------------------------------------------------------------

    def _emit_arith(self, state: "_MethodState") -> None:
        builder = state.builder
        rng = self._rng
        a = self._int_source(state)
        dst = builder.reg()
        kind = rng.randrange(4)
        if kind == 0:
            builder.add(dst, a, self._int_source(state))
        elif kind == 1:
            builder.mul_lit(dst, a, rng.randrange(2, 9))
        elif kind == 2:
            builder.sub_lit(dst, a, rng.randrange(1, 50))
        else:
            builder.and_lit(dst, a, (1 << rng.randrange(3, 9)) - 1)
        state.int_regs.append(dst)

    def _emit_field_update(self, state: "_MethodState") -> None:
        plan = self._plan
        if not plan.int_fields:
            return self._emit_arith(state)
        field_name = self._rng.choice(plan.int_fields)
        builder = state.builder
        reg = builder.reg()
        builder.sget(reg, field_name)
        builder.add_lit(reg, reg, self._rng.randrange(1, 7))
        builder.sput(reg, field_name)
        state.int_regs.append(reg)

    def _emit_env_read(self, state: "_MethodState") -> None:
        plan = self._plan
        builder = state.builder
        rng = self._rng
        plan.env_used += 1
        if rng.random() < 0.3 and _STR_ENVS:
            name = rng.choice(_STR_ENVS)
            name_reg = builder.const_new(name)
            value = builder.reg()
            builder.invoke(value, "android.env.get", (name_reg,))
            state.str_regs.append(value)
        else:
            name = rng.choice(_INT_ENVS)
            name_reg = builder.const_new(name)
            value = builder.reg()
            builder.invoke(value, "android.env.get", (name_reg,))
            state.int_regs.append(value)

    def _emit_compare_branch(self, state: "_MethodState") -> None:
        """A non-QC conditional (ordering comparison)."""
        builder = state.builder
        rng = self._rng
        a = self._int_source(state)
        b = self._int_source(state)
        skip = builder.fresh_label("cmp")
        rng.choice([builder.if_lt, builder.if_ge, builder.if_gt, builder.if_le])(a, b, skip)
        self._emit_small_body(state)
        builder.label(skip)

    def _emit_loop(self, state: "_MethodState") -> None:
        builder = state.builder
        rng = self._rng
        counter = builder.const_new(0)
        limit = builder.const_new(rng.randrange(8, 40))
        accumulator = self._int_source(state)
        top = builder.fresh_label("loop")
        done = builder.fresh_label("done")
        builder.label(top)
        builder.if_ge(counter, limit, done)
        builder.add(accumulator, accumulator, counter)
        builder.add_lit(counter, counter, 1)
        builder.goto(top)
        builder.label(done)

    def _emit_string_op(self, state: "_MethodState") -> None:
        builder = state.builder
        rng = self._rng
        s = self._str_source(state)
        if rng.random() < 0.5:
            word = builder.const_new(rng.choice(COMMON_WORDS))
            dst = builder.reg()
            builder.invoke(dst, "java.str.concat", (s, word))
            state.str_regs.append(dst)
            if self._plan.str_fields and rng.random() < 0.5:
                builder.sput(dst, rng.choice(self._plan.str_fields))
        else:
            dst = builder.reg()
            builder.invoke(dst, "java.str.length", (s,))
            state.int_regs.append(dst)

    def _emit_log(self, state: "_MethodState") -> None:
        builder = state.builder
        message = self._str_source(state)
        builder.invoke(None, "android.log.i", (message,))

    def _emit_helper_call(self, state: "_MethodState") -> None:
        builder = state.builder
        name, params = self._rng.choice(self._plan.helpers)
        args = [self._int_source(state) for _ in range(params)]
        dst = builder.reg()
        builder.invoke(dst, name, args)
        state.int_regs.append(dst)

    # -- qualified conditions ------------------------------------------------------

    def _emit_qc(self, state: "_MethodState") -> None:
        plan = self._plan
        plan.qcs_emitted += 1

        # Most conditions in real apps sit on paths that are *not* taken
        # on every interaction (the paper's observation D2: a tester
        # covers a small portion of an app).  Wrap a majority of QC
        # sites in an input-dependent guard so they are reached only on
        # a fraction of executions -- this is also what keeps the
        # protected app's overhead low (Table 5): dormant bombs cost
        # nothing when control never reaches them.
        builder = state.builder
        rng = self._rng
        guard_label = None
        # Guard on an *event parameter* where one exists: it varies per
        # interaction, so the site is rarely hit on any single event but
        # reliably reachable over a session.  (A constant-valued guard
        # would make the site statically dead.)
        int_params = [r for r in state.int_regs if r < builder.params]
        if int_params and rng.random() < 0.6:
            source = rng.choice(int_params)
            gated = builder.reg()
            builder.rem_lit(gated, source, rng.choice((4, 6, 8)))
            guard_label = builder.fresh_label("rare")
            builder.if_nez(gated, guard_label)

        # Registers defined under the guard are conditionally assigned;
        # scope them so later code never reads a maybe-undefined value.
        int_mark = len(state.int_regs)
        str_mark = len(state.str_regs)

        roll = rng.random()
        if roll < 0.40:
            self._emit_bool_qc(state)
        elif roll < 0.62:
            self._emit_int_qc(state)
        elif roll < 0.80:
            self._emit_switch_qc(state)
        else:
            self._emit_str_qc(state)

        if guard_label is not None:
            builder.label(guard_label)
            del state.int_regs[int_mark:]
            del state.str_regs[str_mark:]

    def _emit_int_qc(self, state: "_MethodState") -> None:
        builder = state.builder
        rng = self._rng
        if rng.random() < 0.55:
            # Easy: (x % m) == k -- random fuzzing hits it in ~m tries.
            source = self._int_source(state)
            modulus = rng.choice((4, 8, 16, 32))
            tested = builder.reg()
            builder.rem_lit(tested, source, modulus)
            constant = rng.randrange(modulus)
        else:
            # Hard: exact match on a wider value.
            tested = self._int_source(state)
            constant = rng.randrange(0, rng.choice((12, 285, 4096, 100_000)))
        const_reg = builder.reg()
        builder.const(const_reg, constant)
        skip = builder.fresh_label("qci")
        builder.if_ne(tested, const_reg, skip)
        self._emit_small_body(state)
        builder.label(skip)

    def _emit_str_qc(self, state: "_MethodState") -> None:
        builder = state.builder
        rng = self._rng
        subject = self._str_source(state)
        word = rng.choice(COMMON_WORDS if rng.random() < 0.5 else RARE_WORDS)
        const_reg = builder.reg()
        builder.const(const_reg, word)
        result = builder.reg()
        builder.invoke(result, "java.str.equals", (subject, const_reg))
        skip = builder.fresh_label("qcs")
        builder.if_eqz(result, skip)
        self._emit_small_body(state)
        builder.label(skip)

    def _emit_bool_qc(self, state: "_MethodState") -> None:
        """Weak QC: a boolean test (string comparison of two variables)."""
        builder = state.builder
        a = self._str_source(state)
        b = self._str_source(state)
        result = builder.reg()
        builder.invoke(result, "java.str.equals", (a, b))
        skip = builder.fresh_label("qcb")
        if self._rng.random() < 0.5:
            builder.if_eqz(result, skip)
        else:
            builder.if_nez(result, skip)
        self._emit_small_body(state)
        builder.label(skip)

    def _emit_switch_qc(self, state: "_MethodState") -> None:
        builder = state.builder
        rng = self._rng
        source = self._int_source(state)
        tested = builder.reg()
        builder.rem_lit(tested, source, 16)
        case_count = rng.randrange(2, 5)
        keys = rng.sample(range(16), case_count)
        end = builder.fresh_label("swend")
        table = {}
        case_labels = []
        for key in keys:
            label = builder.fresh_label("case")
            table[key] = label
            case_labels.append(label)
        builder.switch(tested, table)
        builder.goto(end)
        for label in case_labels:
            builder.label(label)
            self._emit_small_body(state)
            builder.goto(end)
        builder.label(end)

    def _emit_small_body(self, state: "_MethodState") -> None:
        """1-3 simple statements: the weavable content of a condition.

        Registers defined inside a conditional body are scoped to it --
        code after the join must not read a register that is only
        assigned when the branch was taken.
        """
        int_mark = len(state.int_regs)
        str_mark = len(state.str_regs)
        for _ in range(self._rng.randrange(1, 4)):
            if self._plan.int_fields and self._rng.random() < 0.7:
                self._emit_field_update(state)
            else:
                self._emit_arith(state)
        del state.int_regs[int_mark:]
        del state.str_regs[str_mark:]


@dataclass
class _MethodState:
    builder: MethodBuilder
    int_regs: List[int]
    str_regs: List[int]
