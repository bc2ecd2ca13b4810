"""Differential tests: the dispatch-table interpreter vs the reference oracle.

The dispatch-table interpreter must be *bit identical* to the
pre-dispatch-table loop, which survives verbatim as the test-only
:class:`tests.vm_reference.ReferenceInterpreter`.  Every test here runs
the same program under both interpreters and compares return values,
instruction counts, cost units, bomb statistics, tracer event streams
and error behavior.
"""

from __future__ import annotations

import pytest

from repro.core.instrumenter import MethodEditor
from repro.dex import assemble, instructions as ins
from repro.dex.opcodes import Op
from repro.errors import BudgetExhausted, VMError
from repro.fuzzing import DynodroidGenerator
from repro.vm import Runtime
from repro.vm.interpreter import Tracer
from tests.vm_reference import ReferenceInterpreter, reference_runtime

#: Builds a runtime on each side of the comparison.
RUNTIMES = {"reference": reference_runtime, "table": Runtime}

# Exercises every fusion shape the compiler knows (CONST+CONST,
# CONST+INVOKE, CONST+compare, CONST+zero-test, INVOKE+zero-test),
# loops, switches, framework calls and app-to-app calls.
FUSION_APP = """
.class F
.field acc static 0
.method main 0
    const r0, 1
    const r1, 2
    add r0, r0, r1
    sput r0, F.acc
    return_void
.end
.method helper 1
    mul_lit r1, r0, 3
    add_lit r1, r1, 2
    return r1
.end
.method on_key 1
    const r1, "go"
    invoke r2, java.str.length, r1
    if_eqz r2, @skip
    const r3, 4
    if_lt r0, r3, @skip
    invoke r4, F.helper, r0
    sput r4, F.acc
@skip:
    sget r5, F.acc
    add r5, r5, r0
    sput r5, F.acc
    return_void
.end
.method spin 1
@loop:
    sub_lit r0, r0, 1
    invoke r1, F.helper, r0
    if_nez r0, @loop
    return r1
.end
.method on_menu 1
    switch r0, {1 -> @one, 2 -> @two}
    const r1, -1
    return r1
@one:
    const r1, 100
    return r1
@two:
    const r1, 200
    return r1
.end
"""


class RecordingTracer(Tracer):
    """Captures the full hook stream as comparable tuples."""

    def __init__(self):
        self.stream = []

    def on_instr(self, method, pc, instr):
        self.stream.append(("instr", method.qualified_name, pc, instr.op.value))

    def on_branch(self, method, pc, instr, taken):
        self.stream.append(("branch", method.qualified_name, pc, instr.op.value, taken))

    def on_invoke(self, name, args):
        self.stream.append(("invoke", name, tuple(repr(a) for a in args)))


def _observables(runtime):
    return {
        "detections": list(runtime.detections),
        "reports": list(runtime.reports),
        "ui_effects": list(runtime.ui_effects),
        "logs": list(runtime.logs),
        "statics": {k: repr(v) for k, v in runtime.statics.items()},
        "cost_units": runtime.cost_units,
        "bomb_events": [(e.clock, e.bomb_id, e.kind) for e in runtime.bombs.events],
        "bomb_counts": runtime.bombs.counts,
        "clock": runtime.device.clock,
    }


def _play(apk, engine, seed=7, events=120, budget=200_000, trace=False):
    """Boot + dispatch a seeded event stream; returns every observable."""
    dex = apk.dex()
    runtime = RUNTIMES[engine](dex, package=apk.install_view(), seed=seed)
    recorder = RecordingTracer()
    if trace:
        runtime.add_tracer(recorder)
    outcomes = []
    try:
        runtime.boot()
        outcomes.append(("boot", "ok"))
    except VMError as exc:
        outcomes.append(("boot", type(exc).__name__, str(exc)))
    for event in DynodroidGenerator(dex, seed=seed).stream(events):
        ctx = runtime.session(budget=budget)
        try:
            result = ctx.dispatch(event)
            outcomes.append(
                ("ok", repr(result.value), result.instructions, result.cost,
                 result.trip_kinds())
            )
        except VMError as exc:
            outcomes.append((type(exc).__name__, str(exc), ctx.consumed))
    return outcomes, _observables(runtime), recorder.stream


class TestDifferentialCorpus:
    def test_protected_app_identical(self, protected_apk):
        """Genuine protected app: bombs evaluate but never detonate --
        both engines must agree on every observable."""
        ref_out, ref_obs, _ = _play(protected_apk, "reference")
        tab_out, tab_obs, _ = _play(protected_apk, "table")
        assert tab_out == ref_out
        assert tab_obs == ref_obs
        assert ref_obs["bomb_counts"]  # the stream actually hit bombs

    def test_pirated_app_identical(self, pirated_apk):
        """Repackaged build: detonations, responses, reports -- the
        interesting half of the semantics."""
        ref_out, ref_obs, _ = _play(pirated_apk, "reference", seed=8, events=150)
        tab_out, tab_obs, _ = _play(pirated_apk, "table", seed=8, events=150)
        assert tab_out == ref_out
        assert tab_obs == ref_obs
        assert ref_obs["detections"]  # at least one bomb fired

    def test_tracer_streams_identical(self, protected_apk):
        """on_instr / on_branch / on_invoke fire with the same payloads
        in the same order under both engines (original pcs, original
        instruction objects, even through fused superinstructions)."""
        _, _, ref_stream = _play(protected_apk, "reference", events=40, trace=True)
        _, _, tab_stream = _play(protected_apk, "table", events=40, trace=True)
        assert ref_stream  # non-trivial stream
        assert tab_stream == ref_stream


def _runtimes():
    dex_ref = assemble(FUSION_APP)
    dex_tab = assemble(FUSION_APP)
    return (
        reference_runtime(dex_ref, seed=0),
        Runtime(dex_tab, seed=0),
    )


def _probe(runtime, name, args, budget):
    """(kind, payload, instructions, cost_delta) for one invocation."""
    before = runtime.cost_units
    ctx = runtime.session(budget=budget)
    try:
        result = ctx.run(runtime.find_method(name), args)
        return ("ok", repr(result.value), result.instructions,
                runtime.cost_units - before)
    except VMError as exc:
        return (type(exc).__name__, str(exc), ctx.consumed,
                runtime.cost_units - before)


class TestFusionBoundaries:
    def test_every_budget_boundary_matches(self):
        """Exhaust the budget at every possible instruction boundary --
        including mid-superinstruction -- and require identical error
        type, message, instruction count and cost on both engines."""
        ref, tab = _runtimes()
        full = _probe(ref, "F.spin", [6], 10_000)
        assert full[0] == "ok"
        ceiling = full[2] + 2
        for budget in range(1, ceiling):
            assert _probe(tab, "F.spin", [6], budget) == _probe(
                ref, "F.spin", [6], budget
            ), f"diverged at budget={budget}"

    def test_fused_method_results_match(self):
        ref, tab = _runtimes()
        for name, args_list in (
            ("F.on_key", [[0], [3], [4], [9]]),
            ("F.on_menu", [[0], [1], [2], [3]]),
            ("F.helper", [[5], [-5], [2**31 - 1]]),
        ):
            for args in args_list:
                assert _probe(tab, name, args, 100_000) == _probe(
                    ref, name, args, 100_000
                )

    def test_exhaustion_message_names_method(self):
        _, tab = _runtimes()
        with pytest.raises(BudgetExhausted, match="F.spin"):
            tab.session(budget=5).run(tab.find_method("F.spin"), [100])


class TestInlineCaches:
    def test_warm_runs_identical_to_cold(self):
        _, tab = _runtimes()
        cold = _probe(tab, "F.on_key", [7], 100_000)
        warm = _probe(tab, "F.on_key", [7], 100_000)
        later = _probe(tab, "F.on_key", [7], 100_000)
        assert cold == warm == later
        assert tab.interpreter._cells  # caches actually populated

    def test_generation_guard_survives_dynamic_load(self):
        """Loading more code bumps the method-table generation; cached
        framework targets re-resolve and results stay correct."""
        ref, tab = _runtimes()
        before = [_probe(r, "F.on_key", [7], 100_000) for r in (ref, tab)]
        extra = assemble(".class X\n.method poke 1\nreturn r0\n.end")
        for r in (ref, tab):
            r.load_dex(extra, origin="dynamic")
        after = [_probe(r, "F.on_key", [7], 100_000) for r in (ref, tab)]
        assert before[0] == before[1]
        assert after[0] == after[1] == before[0]

    def test_method_editor_rewrite_invalidates_compiled_body(self):
        """The code-instrumentation path (MethodEditor.splice ->
        method.invalidate()) must drop the compiled body so the next run
        executes the rewritten bytecode."""
        ref, tab = _runtimes()
        assert _probe(tab, "F.helper", [5], 1_000) == _probe(ref, "F.helper", [5], 1_000)
        for r in (ref, tab):
            method = r.find_method("F.helper")
            assert method._compiled is not None or isinstance(
                r.interpreter, ReferenceInterpreter
            )
            editor = MethodEditor(method, label_ns="t")
            editor.splice(0, 0, [ins.binop_lit(Op.ADD_LIT, 0, 0, 100)])
            assert method._compiled is None
        rewritten = [_probe(r, "F.helper", [5], 1_000) for r in (ref, tab)]
        assert rewritten[0] == rewritten[1]
        assert rewritten[0][1] == repr((5 + 100) * 3 + 2)

    def test_direct_invalidate_clears_compiled(self):
        _, tab = _runtimes()
        method = tab.find_method("F.helper")
        tab.session().run(method, [1])
        assert method._compiled is not None
        method.invalidate()
        assert method._compiled is None


class TestClassloadMemo:
    def test_warm_blob_load_returns_same_method(self, protected_apk):
        from repro.dex.serializer import serialize_dex

        blob = serialize_dex(
            assemble(".class P\n.method enter 1\nreturn r0\n.end")
        )
        runtime = Runtime(protected_apk.dex(), package=protected_apk.install_view())
        first = runtime.load_blob_method(blob, "P.enter")
        assert (blob, "P.enter") in runtime._method_memo
        second = runtime.load_blob_method(blob, "P.enter")
        assert second is first

