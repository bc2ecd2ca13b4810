"""Bytecode verifier: broken methods must be caught before they ship.

Each test seeds one deliberate defect into a method and asserts the
exact rule id the verifier reports -- these are the bugs a botched
weave would otherwise surface as crashes on user devices.
"""

import pytest

from repro.analysis.verifier import (
    VERIFIER_RULES,
    RegType,
    _join,
    _join_states,
    verify_dex,
    verify_method,
)
from repro.core.instrumenter import MethodEditor
from repro.dex import assemble, assemble_method
from repro.dex.instructions import Instr, const
from repro.dex.model import DexMethod
from repro.dex.opcodes import Op
from repro.lint.diagnostics import Severity, errors


def method_of(body: str, params: int = 1) -> DexMethod:
    return assemble_method(body, class_name="A", name="m", params=params)


def rules_of(diagnostics):
    return {diag.rule for diag in diagnostics}


class TestStructuralChecks:
    def test_clean_method_verifies_clean(self):
        method = method_of("const r1, 5\nadd r2, r0, r1\nreturn r2")
        assert verify_method(method) == []

    def test_empty_method(self):
        method = DexMethod(name="m", class_name="A", params=0, registers=1)
        assert rules_of(verify_method(method)) == {"empty-method"}

    def test_reg_out_of_range(self):
        # The assembler would size the register file, so build directly:
        # r7 does not exist in a 3-register method.
        method = DexMethod(
            name="m", class_name="A", params=1, registers=3,
            instructions=[
                const(1, 5),
                Instr(op=Op.ADD, dst=2, a=0, b=7),
                Instr(op=Op.RETURN, a=2),
            ],
        )
        diagnostics = verify_method(method)
        assert rules_of(diagnostics) == {"reg-out-of-range"}
        (diag,) = diagnostics
        assert diag.is_error
        assert diag.span == (1, 2)

    def test_dangling_label(self):
        method = DexMethod(
            name="m", class_name="A", params=1, registers=2,
            instructions=[
                Instr(op=Op.IF_EQZ, a=0, target="nowhere"),
                Instr(op=Op.RETURN_VOID),
            ],
        )
        assert rules_of(verify_method(method)) == {"dangling-label"}

    def test_duplicate_label(self):
        method = DexMethod(
            name="m", class_name="A", params=0, registers=1,
            instructions=[
                Instr(op=Op.LABEL, value="twice"),
                Instr(op=Op.LABEL, value="twice"),
                Instr(op=Op.RETURN_VOID),
            ],
        )
        assert "duplicate-label" in rules_of(verify_method(method))

    def test_switch_bad_table(self):
        method = DexMethod(
            name="m", class_name="A", params=1, registers=2,
            instructions=[
                Instr(op=Op.SWITCH, a=0, value={}),
                Instr(op=Op.RETURN_VOID),
            ],
        )
        assert rules_of(verify_method(method)) == {"switch-bad-table"}

    def test_switch_dangling_target(self):
        method = DexMethod(
            name="m", class_name="A", params=1, registers=2,
            instructions=[
                Instr(op=Op.SWITCH, a=0, value={1: "missing"}),
                Instr(op=Op.RETURN_VOID),
            ],
        )
        assert rules_of(verify_method(method)) == {"dangling-label"}


class TestStaleLabelCache:
    """Satellite: a structural edit that skips invalidate() must be caught.

    The branch below targets @out.  After inserting an instruction ahead
    of the label WITHOUT invalidating, the cached label map still points
    at the old pc -- resolve() would land the branch one instruction
    short, silently executing the guarded store.
    """

    SOURCE = (
        "const r1, 5\nif_ne r0, r1, @out\nsput r0, A.x\n@out:\nreturn_void"
    )

    def _assembled(self):
        dex = assemble(
            ".class A\n.field x static 0\n.method m 1\n" + self.SOURCE + "\n.end"
        )
        return dex.get_method("A.m")

    def test_stale_cache_detected(self):
        method = self._assembled()
        stale_pc = method.resolve("out")       # populates the cache
        method.instructions.insert(0, const(1, 9))  # bug: no invalidate()
        assert method.label_cache() is not None
        assert method.resolve("out") == stale_pc    # mis-resolves: off by one
        diagnostics = verify_method(method)
        assert "stale-label-cache" in rules_of(diagnostics)
        assert all(
            diag.is_error for diag in diagnostics
            if diag.rule == "stale-label-cache"
        )

    def test_editor_splice_invalidates(self):
        method = self._assembled()
        method.resolve("out")
        editor = MethodEditor(method)
        editor.splice(0, 0, [const(1, 9)])
        assert method.label_cache() is None    # splice() dropped the cache
        assert verify_method(method) == []

    def test_consistent_cache_not_flagged(self):
        method = self._assembled()
        method.resolve("out")  # warm cache matching the instruction list
        assert verify_method(method) == []


class TestJoin:
    def test_equal_states_join_to_the_first(self):
        state = (RegType.INT, RegType.MAYBE_UNINIT, RegType.VALUE)
        assert _join_states(state, tuple(state)) is state

    @pytest.mark.parametrize("x", list(RegType))
    @pytest.mark.parametrize("y", list(RegType))
    def test_register_join_matches_the_lattice(self, x, y):
        assert _join(x, x) is x
        assert _join_states((x, RegType.INT), (y, RegType.INT)) == (
            _join(x, y),
            RegType.INT,
        )


class TestDataflow:
    def test_read_uninit(self):
        method = method_of("add r2, r0, r1\nreturn r2")
        diagnostics = verify_method(method)
        assert rules_of(diagnostics) == {"read-uninit"}
        (diag,) = diagnostics
        assert diag.severity is Severity.ERROR
        assert "r1" in diag.message

    def test_maybe_uninit_is_warning(self):
        # r1 is assigned only on the branch-taken path.
        method = method_of(
            """
            if_eqz r0, @skip
            const r1, 7
        @skip:
            return r1
            """
        )
        diagnostics = verify_method(method)
        assert rules_of(diagnostics) == {"maybe-uninit"}
        assert not errors(diagnostics)

    def test_params_count_as_assigned(self):
        method = method_of("return r1", params=2)
        assert verify_method(method) == []

    def test_unreachable_code(self):
        method = method_of("return r0\nconst r1, 1\nconst r2, 2")
        diagnostics = verify_method(method)
        assert rules_of(diagnostics) == {"unreachable-code"}
        (diag,) = diagnostics
        assert diag.severity is Severity.WARNING
        assert diag.span == (1, 3)

    def test_code_behind_label_is_reachable(self):
        method = method_of(
            "if_eqz r0, @b\nreturn r0\n@b:\nconst r1, 2\nreturn r1"
        )
        assert verify_method(method) == []

    def test_fall_off_end(self):
        method = method_of("const r1, 5")
        diagnostics = verify_method(method)
        assert rules_of(diagnostics) == {"fall-off-end"}
        assert not errors(diagnostics)

    def test_fall_off_end_trailing_conditional_branch(self):
        # The branch has a taken-edge successor, but the not-taken path
        # still runs past the last instruction.
        method = method_of("@top:\nconst r1, 1\nif_eqz r1, @top")
        assert "fall-off-end" in rules_of(verify_method(method))

    def test_fall_off_end_trailing_switch(self):
        method = method_of("@a:\nswitch r0, {1 -> @a}")
        assert "fall-off-end" in rules_of(verify_method(method))

    def test_trailing_goto_does_not_fall_off(self):
        method = method_of("@top:\nconst r1, 1\ngoto @top")
        assert "fall-off-end" not in rules_of(verify_method(method))

    def test_trailing_return_does_not_fall_off(self):
        assert verify_method(method_of("return r0")) == []

    def test_type_mismatch_string_into_add(self):
        method = method_of('const r1, "hi"\nadd r2, r0, r1\nreturn r2')
        diagnostics = verify_method(method)
        assert rules_of(diagnostics) == {"type-mismatch"}
        assert errors(diagnostics)

    def test_type_mismatch_int_indexed_as_array(self):
        method = method_of("const r1, 3\naget r2, r1, r0\nreturn r2")
        assert "type-mismatch" in rules_of(verify_method(method))

    def test_array_flows_correctly(self):
        method = method_of(
            "const r1, 2\nnew_array r2, r1\nconst r3, 0\n"
            "aput r0, r2, r3\naget r4, r2, r3\nreturn r4"
        )
        assert verify_method(method) == []

    def test_merged_type_not_flagged(self):
        # r1 is int on one path, string on the other: joins to VALUE,
        # which the verifier must not call a definite mismatch.
        method = method_of(
            """
            if_eqz r0, @s
            const r1, 7
            goto @join
        @s:
            const r1, "seven"
        @join:
            add r2, r0, r1
            return r2
            """
        )
        assert verify_method(method) == []

    def test_structural_error_suppresses_dataflow(self):
        # The dangling branch makes every downstream dataflow question
        # moot; the verifier must not pile misleading reports on top.
        method = DexMethod(
            name="m", class_name="A", params=0, registers=3,
            instructions=[
                Instr(op=Op.GOTO, target="gone"),
                Instr(op=Op.ADD, dst=2, a=0, b=1),
                Instr(op=Op.RETURN, a=2),
            ],
        )
        assert rules_of(verify_method(method)) == {"dangling-label"}

    def test_switch_successors_all_checked(self):
        # r1 is assigned only under case 1, read after the join.
        method = method_of(
            """
            switch r0, {1 -> @one}
            goto @join
        @one:
            const r1, 10
        @join:
            return r1
            """
        )
        assert rules_of(verify_method(method)) == {"maybe-uninit"}


class TestVerifyDex:
    def test_whole_file_clean(self):
        dex = assemble(
            ".class A\n.method m 1\nconst r1, 1\nadd r2, r0, r1\nreturn r2\n.end"
        )
        assert verify_dex(dex) == []

    def test_reports_carry_method_names(self):
        dex = assemble(
            ".class A\n.method good 1\nreturn r0\n.end\n"
            ".method bad 0\nreturn r1\n.end"
        )
        dex.get_method("A.bad").registers = 2  # make r1 in-range but uninit
        diagnostics = verify_dex(dex)
        assert [diag.method for diag in diagnostics] == ["A.bad"]
        assert rules_of(diagnostics) == {"read-uninit"}

    def test_rule_catalog_is_complete(self):
        for rule_id, (severity, description) in VERIFIER_RULES.items():
            assert isinstance(severity, Severity)
            assert description
