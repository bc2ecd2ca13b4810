"""The bytecode interpreter.

A register machine executing dispatch-table-compiled method bodies
(see :mod:`repro.vm.dispatch`); an untraced frame of a warm method runs
as one generated Python function instead (:mod:`repro.vm.tier2`).  With:

* 32-bit wrapped integer arithmetic;
* label-based branching (resolved to table indices at compile time);
* an instruction budget so endless-loop responses and runaway code
  surface as :class:`BudgetExhausted` instead of hanging the host;
* pluggable tracers -- the profiler (Traceview stand-in), coverage
  measurement for fuzzers, and the debugging attack all observe
  execution through the same hook, registered via
  ``Runtime(tracers=[...])`` or ``Runtime.add_tracer``;
* a *cost model*: every instruction costs 1 unit and framework calls
  cost their published weight, giving a deterministic execution-time
  metric for the Table 5 overhead experiment.

Execution happens under an :class:`~repro.vm.sessions.ExecutionContext`
(:meth:`Interpreter.execute` / :meth:`execute_payload`).

The differential tests (and the VM dispatch benchmark's baseline) run
against a test-only oracle, ``tests/vm_reference.py``: the
pre-dispatch-table decode-as-you-go loop as a subclass that overrides
only :meth:`Interpreter.execute`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos.faults import fault_point
from repro.dex.model import DexMethod
from repro.errors import BudgetExhausted, VMCrash
from repro.vm import tier2
from repro.vm.dispatch import _Frame, compile_method
from repro.vm.sessions import ExecutionContext

#: Recursion limit for nested INVOKE frames.
MAX_CALL_DEPTH = 128


class Tracer:
    """Execution observer; subclass and override what you need.

    ``on_instr`` fires before each real instruction, ``on_branch`` after a
    conditional branch decides, ``on_invoke`` when a method or framework
    call begins.
    """

    def on_instr(self, method: DexMethod, pc: int, instr) -> None:  # pragma: no cover
        pass

    def on_branch(self, method: DexMethod, pc: int, instr, taken: bool) -> None:  # pragma: no cover
        pass

    def on_invoke(self, name: str, args: list) -> None:  # pragma: no cover
        pass


class CountingTracer(Tracer):
    """Counts instructions and per-method invocations (Traceview role)."""

    def __init__(self) -> None:
        self.instructions = 0
        self.invocations: Dict[str, int] = {}

    def on_instr(self, method: DexMethod, pc: int, instr) -> None:
        self.instructions += 1

    def on_invoke(self, name: str, args: list) -> None:
        self.invocations[name] = self.invocations.get(name, 0) + 1


class CoverageTracer(Tracer):
    """Records executed (method, pc) pairs and branch outcomes."""

    def __init__(self) -> None:
        self.visited = set()
        self.branches: Dict[tuple, set] = {}

    def on_instr(self, method: DexMethod, pc: int, instr) -> None:
        self.visited.add((method.qualified_name, pc))

    def on_branch(self, method: DexMethod, pc: int, instr, taken: bool) -> None:
        self.branches.setdefault((method.qualified_name, pc), set()).add(taken)

    def instruction_coverage_of(self, dex) -> float:
        """Fraction of real instructions of ``dex`` ever executed.

        Only ``dex``'s own methods count: bomb payloads loaded at run
        time are traced too, but are not part of ``dex``.
        """
        total = dex.instruction_count()
        if total == 0:
            return 0.0
        own = {m.qualified_name for m in dex.iter_methods()}
        executed = sum(1 for name, _ in self.visited if name in own)
        return min(1.0, executed / total)


class CompositeTracer(Tracer):
    """Fans every hook out to child tracers, in registration order.

    ``Runtime.tracer`` holds one of these when more than one tracer
    is registered, so the interpreter's single-tracer fast path is
    preserved no matter how many observers attach.
    """

    def __init__(self, children=()) -> None:
        self.children: List[Tracer] = list(children)

    def on_instr(self, method: DexMethod, pc: int, instr) -> None:
        for child in self.children:
            child.on_instr(method, pc, instr)

    def on_branch(self, method: DexMethod, pc: int, instr, taken: bool) -> None:
        for child in self.children:
            child.on_branch(method, pc, instr, taken)

    def on_invoke(self, name: str, args: list) -> None:
        for child in self.children:
            child.on_invoke(name, args)


class Interpreter:
    """Executes compiled methods against a :class:`repro.vm.runtime.Runtime`."""

    def __init__(self, runtime) -> None:
        self._runtime = runtime
        # Inline-cache cell arrays, one list per compiled body.  Keyed
        # by the CompiledMethod object: method.invalidate() drops the
        # compiled body, so a recompile naturally starts with cold
        # cells and the stale array is never consulted again.
        self._cells: Dict[object, list] = {}

    def execute_payload(self, method: DexMethod, args: List, ctx: ExecutionContext, policy):
        """Run a bomb payload frame, under a sub-budget when contained.

        Without a containment ``policy`` this is exactly the shared-
        budget frame run the instrumented INVOKE would have made.  With
        one, the payload gets ``min(remaining, policy.payload_budget)``
        instructions of its own (the ``vm.budget`` fault site can clamp
        it further); whatever it consumes is still charged to the host
        budget, but a payload that spins can no longer drain the host.
        """
        if policy is None:
            return self.execute(method, args, ctx, depth=1)
        budget = ctx.budget
        cap = fault_point("vm.budget", min(budget[0], policy.payload_budget))
        sub = ExecutionContext(self._runtime, budget=cap)
        try:
            return self.execute(method, args, sub, depth=1)
        finally:
            # An exhausted sub-cell rests at -1; charge what ran (as
            # ExecutionContext.consumed clamps), not one more.
            budget[0] -= cap - max(sub.budget[0], 0)

    def execute(self, method: DexMethod, args: List, ctx: ExecutionContext, depth: int = 0):
        """Execute ``method`` with ``args`` under ``ctx``; returns its
        return value.  The context's budget caps executed instructions
        across this call *including* callees (shared budget cell)."""
        if depth > MAX_CALL_DEPTH:
            raise VMCrash(f"call depth exceeded at {method.qualified_name}")
        if len(args) != method.params:
            raise VMCrash(
                f"{method.qualified_name} takes {method.params} args, got {len(args)}"
            )
        code = method._compiled
        if code is None:
            code = compile_method(method)
        registers: List = [None] * method.registers
        registers[: len(args)] = args
        runtime = self._runtime
        tracer = runtime.tracer
        cells = self._cells.get(code)
        if cells is None:
            cells = [None] * code.cell_count
            self._cells[code] = cells
        budget = ctx.budget
        frame = _Frame(self, runtime, method, tracer, ctx, budget, depth, cells)
        if tracer is None:
            fast = code.tier2
            if fast is None and code.warmth >= tier2.WARM_INSTRUCTIONS:
                fast = tier2.compile_tier2(method, code)
            if fast is not None:
                return fast(registers, frame, budget)
        steps = code.steps
        count = code.count
        exhausted = code.exhausted
        cost = 0
        i = 0
        # The frame's instruction cost accrues in a local and flushes on
        # exit (framework calls charge the runtime directly; totals are
        # identical either way, and nothing reads cost_units mid-frame).
        try:
            if tracer is None:
                while 0 <= i < count:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise BudgetExhausted(exhausted)
                    cost += 1
                    i = steps[i](registers, frame)
            else:
                pcs = code.orig_pcs
                instrs = code.orig_instrs
                while 0 <= i < count:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise BudgetExhausted(exhausted)
                    cost += 1
                    tracer.on_instr(method, pcs[i], instrs[i])
                    i = steps[i](registers, frame)
        finally:
            runtime.cost_units += cost
            if tracer is None:
                code.warmth += cost
        if i >= 0:
            raise VMCrash(
                f"{method.qualified_name}: control fell off the end of the method"
            )
        return frame.result
