"""The shared forward solver against its FIFO reference, on generated methods.

:func:`repro.analysis.cfg.solve_forward` pops its worklist as a stack;
``tests/triggers_reference.py`` keeps the FIFO loop the verifier ran
before.  Both lattices must reach the same states in either order, so
for every generated method (``programs()`` of the tier-2 differential)
that passes the verifier's structural checks, the verifier diagnostics
and the HSO walker's states must be equal under both solvers, and the
CFG's dead instructions must be the verifier's ``unreachable-code``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings

from repro.analysis import triggers, verifier
from repro.analysis.cfg import build_cfg
from repro.analysis.triggers import _TaintWalker
from repro.analysis.verifier import verify_method
from repro.dex import assemble_method
from repro.dex.model import DexMethod
from repro.dex.opcodes import Op
from tests.test_vm_tier2 import programs
from tests.triggers_reference import fifo_solver

#: Verifier rules whose errors stop it before the dataflow pass.
STRUCTURAL = frozenset({
    "empty-method", "duplicate-label", "stale-label-cache",
    "reg-out-of-range", "dangling-label", "switch-bad-table",
})


def _unreachable_pcs(diagnostics):
    return {
        pc
        for diag in diagnostics
        if diag.rule == "unreachable-code"
        for pc in range(*diag.span)
    }


def _cfg_dead_pcs(method):
    cfg = build_cfg(method)
    reachable = cfg.reachable()
    return {
        pc
        for block in cfg.blocks
        if block.index not in reachable
        for pc in block.pcs()
        if method.instructions[pc].op not in (Op.LABEL, Op.NOP)
    }


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program=programs())
def test_stack_and_fifo_solvers_agree(program):
    instructions, registers, params, _ = program
    method = DexMethod(
        name="main", class_name="G", params=params, registers=registers,
        instructions=list(instructions),
    )
    diagnostics = verify_method(method)
    if any(diag.rule in STRUCTURAL for diag in diagnostics):
        return
    states = _TaintWalker(method).run()
    with fifo_solver():
        assert verify_method(method) == diagnostics
        assert _TaintWalker(method).run() == states
    assert _cfg_dead_pcs(method) == _unreachable_pcs(diagnostics)


def test_joins_are_looked_up_by_module_attribute():
    # ``generator_joins()`` patches ``triggers._join_state`` and
    # ``verifier._join_states``; the solver must call the patched ones.
    method = assemble_method(
        "if_eqz r0, @b\nconst r1, 1\ngoto @end\n@b:\nconst r1, \"s\"\n@end:\nreturn r1",
        class_name="A", name="m", params=1,
    )
    with mock.patch.object(verifier, "_join_states", wraps=verifier._join_states) as join_states, \
            mock.patch.object(triggers, "_join_state", wraps=triggers._join_state) as join_state:
        verify_method(method)
        _TaintWalker(method).run()
    assert join_states.called and join_state.called
