"""Static analysis: CFG, dominators, loops, QCs, regions, slicing."""

import pytest

from repro.analysis import (
    backward_slice,
    body_region,
    build_cfg,
    control_dependence,
    controlled_blocks,
    dominators,
    find_qualified_conditions,
    immediate_postdominators,
    instructions_in_loops,
    natural_loops,
    postdominators,
    region_is_weavable,
)
from repro.analysis.cfg import instruction_successors, method_successors
from repro.analysis.defs import constant_in_block, register_used_once, use_sites
from repro.analysis.qualified_conditions import QCKind, Strength
from repro.analysis.slicing import extract_slice_method
from repro.dex import assemble_method, DexClass, DexFile, instructions as ins
from repro.vm import Runtime


def method_of(body: str, params: int = 1):
    return assemble_method(body, class_name="A", name="m", params=params)


DIAMOND = """
    if_ge r0, r0, @right
    const r1, 1
    goto @join
@right:
    const r1, 2
@join:
    return r1
"""

LOOPY = """
    const r1, 0
@loop:
    if_ge r1, r0, @done
    add_lit r1, r1, 1
    goto @loop
@done:
    return r1
"""


class TestCfg:
    def test_diamond_shape(self):
        cfg = build_cfg(method_of(DIAMOND))
        entry = cfg.blocks[0]
        assert len(entry.successors) == 2
        join = cfg.block_of(cfg.method.resolve("join"))
        assert len(join.predecessors) == 2

    def test_unreachable_block_detected(self):
        method = method_of("return r0\nconst r1, 1\nreturn r1")
        cfg = build_cfg(method)
        assert len(cfg.reachable()) < len(cfg.blocks)

    def test_switch_successors(self):
        method = method_of(
            "switch r0, {1 -> @a, 2 -> @b}\nreturn_void\n@a:\nreturn_void\n@b:\nreturn_void"
        )
        cfg = build_cfg(method)
        assert len(cfg.blocks[0].successors) == 3  # two cases + fallthrough

    def test_successor_memo_sees_a_retargeted_branch(self):
        # Retargeting a branch to another existing label moves no label,
        # so the label map stays valid and nothing calls invalidate():
        # the memo must still not serve the old relation.
        method = method_of(
            "if_eqz r0, @a\nreturn_void\n@a:\nreturn_void\n@b:\nreturn_void"
        )
        labels = method.label_map()
        assert method_successors(method) == [(labels["a"], 1), (), (3,), (), (5,), ()]
        assert method_successors(method) is method_successors(method)
        method.instructions[0] = ins.if_eqz(0, "b")
        assert method.label_cache() is labels
        assert method_successors(method) == [(labels["b"], 1), (), (3,), (), (5,), ()]
        assert method_successors(method) == instruction_successors(method.instructions, labels)


class TestDominatorsAndLoops:
    def test_entry_dominates_all_reachable(self):
        cfg = build_cfg(method_of(DIAMOND))
        dom = dominators(cfg)
        for index in cfg.reachable():
            assert 0 in dom[index]

    def test_join_not_dominated_by_either_arm(self):
        cfg = build_cfg(method_of(DIAMOND))
        dom = dominators(cfg)
        join = cfg.block_of(cfg.method.resolve("join")).index
        arms = [
            block.index
            for block in cfg.blocks
            if block.index not in (0, join) and block.index in cfg.reachable()
        ]
        for arm in arms:
            assert arm not in dom[join]

    def test_loop_found(self):
        method = method_of(LOOPY)
        cfg = build_cfg(method)
        loops = natural_loops(cfg)
        assert len(loops) == 1

    def test_instructions_in_loops(self):
        method = method_of(LOOPY)
        in_loop = instructions_in_loops(method)
        add_pc = next(
            pc for pc, i in enumerate(method.instructions) if i.op.value == "add_lit"
        )
        assert add_pc in in_loop
        assert 0 not in in_loop  # the const before the loop

    def test_straightline_has_no_loops(self):
        assert instructions_in_loops(method_of("return r0")) == set()


class TestConstantTracking:
    def test_follows_move_chain(self):
        method = method_of("const r1, 9\nmove r2, r1\nif_eq r0, r2, @t\n@t:\nreturn_void")
        branch_pc = 2
        assert constant_in_block(method, branch_pc, 2) == (0, 9)

    def test_stops_at_labels(self):
        method = method_of("const r1, 9\n@mid:\nif_eq r0, r1, @t\n@t:\nreturn_void")
        assert constant_in_block(method, 2, 1) is None

    def test_redefinition_blocks(self):
        method = method_of("const r1, 9\nadd r1, r0, r0\nif_eq r0, r1, @t\n@t:\nreturn_void")
        assert constant_in_block(method, 2, 1) is None

    def test_register_used_once(self):
        method = method_of("const r1, 9\nif_eq r0, r1, @t\n@t:\nreturn_void")
        assert register_used_once(method, 1, 1)
        method2 = method_of(
            "const r1, 9\nif_eq r0, r1, @t\nadd r2, r1, r0\n@t:\nreturn_void"
        )
        assert not register_used_once(method2, 1, 1)


class TestQualifiedConditions:
    def test_int_eq_via_if_ne(self):
        method = method_of("const r1, 42\nif_ne r0, r1, @s\nconst r2, 1\n@s:\nreturn_void")
        (qc,) = find_qualified_conditions(method)
        assert qc.kind is QCKind.INT_EQ
        assert qc.const_value == 42
        assert not qc.equal_jumps
        assert qc.strength is Strength.MEDIUM
        assert qc.const_removable

    def test_int_eq_via_if_eq_jumps(self):
        method = method_of("const r1, 7\nif_eq r0, r1, @s\nreturn_void\n@s:\nreturn_void")
        (qc,) = find_qualified_conditions(method)
        assert qc.equal_jumps

    def test_string_equals(self):
        body = (
            'const r1, "magic"\ninvoke r2, java.str.equals, r0, r1\n'
            "if_eqz r2, @s\nconst r3, 1\n@s:\nreturn_void"
        )
        (qc,) = find_qualified_conditions(method_of(body))
        assert qc.kind is QCKind.STR_EQUALS
        assert qc.strength is Strength.STRONG
        assert qc.compare_pc == 1

    def test_starts_with_reported_but_distinct_kind(self):
        body = (
            'const r1, "pre"\ninvoke r2, java.str.starts_with, r0, r1\n'
            "if_eqz r2, @s\n@s:\nreturn_void"
        )
        (qc,) = find_qualified_conditions(method_of(body))
        assert qc.kind is QCKind.STR_STARTS_WITH

    def test_bool_test_from_equals_of_variables(self):
        body = (
            "invoke r2, java.str.equals, r0, r1\n"
            "if_eqz r2, @s\nconst r3, 1\n@s:\nreturn_void"
        )
        (qc,) = find_qualified_conditions(method_of(body, params=2))
        assert qc.kind is QCKind.BOOL_TEST
        assert qc.strength is Strength.WEAK

    def test_if_eqz_on_int_not_qualified(self):
        # An int zero-test must NOT qualify: 0 is falsy but hashes as an
        # int, so the transformation would be unsound.
        method = method_of("if_eqz r0, @s\n@s:\nreturn_void")
        assert find_qualified_conditions(method) == []

    def test_switch_cases(self):
        method = method_of(
            "switch r0, {3 -> @a, 9 -> @b}\nreturn_void\n@a:\nreturn_void\n@b:\nreturn_void"
        )
        qcs = find_qualified_conditions(method)
        assert {qc.case_key for qc in qcs} == {3, 9}
        assert all(qc.kind is QCKind.SWITCH_CASE for qc in qcs)

    def test_constant_vs_constant_ignored(self):
        method = method_of("const r1, 1\nconst r2, 2\nif_eq r1, r2, @s\n@s:\nreturn_void")
        assert find_qualified_conditions(method) == []

    def test_ordering_comparisons_not_qualified(self):
        method = method_of("const r1, 5\nif_lt r0, r1, @s\n@s:\nreturn_void")
        assert find_qualified_conditions(method) == []


class TestRegions:
    def test_if_ne_body_weavable(self):
        method = method_of(
            "const r1, 42\nif_ne r0, r1, @s\nconst r2, 1\nconst r3, 2\n@s:\nreturn_void"
        )
        (qc,) = find_qualified_conditions(method)
        region = body_region(method, qc)
        assert region is not None
        assert (region.start, region.end, region.exit_label) == (2, 4, "s")

    def test_body_with_external_jump_not_weavable(self):
        body = """
            const r1, 42
            if_ne r0, r1, @s
            goto @elsewhere
        @s:
            return_void
        @elsewhere:
            return_void
        """
        method = method_of(body)
        (qc,) = find_qualified_conditions(method)
        assert body_region(method, qc) is None

    def test_externally_targeted_label_inside_body_not_weavable(self):
        body = """
            goto @inner
            const r1, 42
            if_ne r0, r1, @s
        @inner:
            const r2, 1
        @s:
            return_void
        """
        method = method_of(body)
        qcs = find_qualified_conditions(method)
        assert all(body_region(method, qc) is None for qc in qcs)

    def test_body_with_return_is_weavable(self):
        body = "const r1, 1\nif_ne r0, r1, @s\nreturn r0\n@s:\nreturn_void"
        method = method_of(body)
        (qc,) = find_qualified_conditions(method)
        assert body_region(method, qc) is not None

    def test_switch_case_region_ends_at_break(self):
        body = """
            switch r0, {1 -> @a}
            return_void
        @a:
            const r1, 5
            goto @join
        @join:
            return_void
        """
        method = method_of(body)
        (qc,) = find_qualified_conditions(method)
        region = body_region(method, qc)
        assert region is not None
        assert region.exit_label == "join"

    def test_region_is_weavable_rejects_empty(self):
        method = method_of(DIAMOND)
        assert not region_is_weavable(method, 3, 3, "join")


class TestSlicing:
    def test_slice_contains_data_dependencies(self):
        body = """
            const r1, 10
            add r2, r0, r1
            const r3, 99
            mul r4, r2, r2
            return r4
        """
        method = method_of(body)
        sliced = backward_slice(method, 3)  # the mul
        assert {0, 1, 3} <= sliced
        assert 2 not in sliced  # r3 is irrelevant

    def test_slice_includes_guarding_branch(self):
        body = """
            if_ge r0, r0, @skip
            const r1, 1
        @skip:
            add r2, r1, r1
            return r2
        """
        method = method_of(body)
        sliced = backward_slice(method, 3)
        assert 0 in sliced  # the branch guards the const

    def test_extracted_slice_runs(self):
        body = """
            const r1, 21
            mul_lit r2, r1, 2
            const r3, 7
            return r2
        """
        method = method_of(body, params=0)
        slice_method = extract_slice_method(method, 1)
        dex = DexFile()
        cls = dex.add_class(DexClass(name="A"))
        cls.add_method(method)
        cls.add_method(slice_method)
        runtime = Runtime(dex)
        # The slice still computes the criterion's inputs.
        runtime.session().invoke(slice_method.qualified_name, [])

    def test_criterion_out_of_range(self):
        with pytest.raises(IndexError):
            backward_slice(method_of("return r0"), 99)


class TestPostdominators:
    def test_exit_postdominates_all_reachable(self):
        cfg = build_cfg(method_of(DIAMOND))
        pdom = postdominators(cfg)
        exit_block = cfg.block_of(len(cfg.method.instructions) - 1).index
        for index in cfg.reachable():
            assert exit_block in pdom[index]

    def test_join_postdominates_both_arms(self):
        cfg = build_cfg(method_of(DIAMOND))
        pdom = postdominators(cfg)
        join = cfg.block_of(cfg.method.resolve("join")).index
        arms = [
            block.index
            for block in cfg.blocks
            if block.index not in (0, join) and block.index in cfg.reachable()
        ]
        assert arms
        for arm in arms:
            assert join in pdom[arm]

    def test_immediate_postdominator_of_branch_is_join(self):
        cfg = build_cfg(method_of(DIAMOND))
        ipdom = immediate_postdominators(cfg)
        join = cfg.block_of(cfg.method.resolve("join")).index
        assert ipdom[0] == join

    def test_exit_has_no_immediate_postdominator(self):
        cfg = build_cfg(method_of(DIAMOND))
        ipdom = immediate_postdominators(cfg)
        exit_block = cfg.block_of(len(cfg.method.instructions) - 1).index
        assert ipdom[exit_block] is None

    def test_diamond_arms_control_dependent_on_branch(self):
        cfg = build_cfg(method_of(DIAMOND))
        cdep = control_dependence(cfg)
        join = cfg.block_of(cfg.method.resolve("join")).index
        arms = {
            block.index
            for block in cfg.blocks
            if block.index not in (0, join) and block.index in cfg.reachable()
        }
        for arm in arms:
            assert cdep[arm] == {0}
        # The join executes regardless of the branch outcome.
        assert cdep[join] == set()
        assert controlled_blocks(cfg, 0) == arms

    def test_loop_header_control_dependent_on_itself(self):
        cfg = build_cfg(method_of(LOOPY))
        cdep = control_dependence(cfg)
        header = cfg.block_of(cfg.method.resolve("loop")).index
        body = cfg.block_of(
            next(pc for pc, i in enumerate(cfg.method.instructions)
                 if i.op.value == "add_lit")
        ).index
        assert header in cdep[body]
        assert header in cdep[header]  # iterating again depends on the test

    def test_single_block_method_trivial(self):
        cfg = build_cfg(method_of("const r1, 5\nreturn r1"))
        assert len(cfg.blocks) == 1
        assert postdominators(cfg)[0] == {0}
        assert immediate_postdominators(cfg)[0] is None
        assert control_dependence(cfg)[0] == set()

    def test_unreachable_block_is_its_own_postdominator_set(self):
        method = method_of("goto @end\nconst r1, 1\n@end:\nreturn_void")
        cfg = build_cfg(method)
        dead = cfg.block_of(1).index
        assert dead not in cfg.reachable()
        assert postdominators(cfg)[dead] == {dead}
        assert control_dependence(cfg)[dead] == set()


class TestCfgEdgeCases:
    def test_unreachable_after_goto(self):
        method = method_of("goto @end\nconst r1, 1\nconst r2, 2\n@end:\nreturn_void")
        cfg = build_cfg(method)
        reachable = cfg.reachable()
        dead = cfg.block_of(1)
        assert dead.index not in reachable
        # Entry still reaches the goto target.
        assert cfg.block_of(method.resolve("end")).index in reachable

    def test_single_block_method(self):
        cfg = build_cfg(method_of("const r1, 5\nreturn r1"))
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == []
        assert cfg.reachable() == {0}
        assert list(cfg.blocks[0].pcs()) == [0, 1]

    def test_loop_with_multiple_back_edges(self):
        body = """
        @loop:
            if_ge r0, r0, @exit
            if_ge r0, r0, @loop
            goto @loop
        @exit:
            return_void
        """
        method = method_of(body)
        cfg = build_cfg(method)
        header = cfg.block_of(method.resolve("loop")).index
        back_edges = [(u, v) for u, v in cfg.edges() if v == header]
        assert len(back_edges) == 2
        loops = natural_loops(cfg)
        assert loops
        assert all(loop_header == header and header in body
                   for loop_header, body in loops)

    def test_conditional_branch_at_last_pc_has_no_fallthrough_edge(self):
        # Trailing IF with no instruction after it: the only CFG edge is
        # the taken branch; the verifier flags the missing fall-through
        # as fall-off-end (cross-checked in test_analysis_verifier).
        method = method_of("@top:\nconst r1, 1\nif_eqz r1, @top")
        cfg = build_cfg(method)
        last = cfg.block_of(len(method.instructions) - 1)
        top = cfg.block_of(method.resolve("top")).index
        assert last.successors == [top]


class TestVerifierCfgReachabilityAgreement:
    """cfg.reachable() and the verifier's dataflow must agree on which
    instructions are dead -- the detector trusts the CFG, strict mode
    trusts the verifier, and they must not diverge."""

    BODIES = [
        DIAMOND,
        LOOPY,
        "goto @end\nconst r1, 1\nconst r2, 2\n@end:\nreturn_void",
        "return r0\nconst r1, 1\nreturn r1",
        "const r1, 5\nreturn r1",
        "switch r0, {1 -> @a, 2 -> @b}\nreturn_void\n@a:\nreturn_void\n@b:\nreturn_void",
        "@loop:\nif_ge r0, r0, @done\nadd_lit r0, r0, 1\ngoto @loop\n@done:\nreturn_void",
    ]

    @pytest.mark.parametrize("body", BODIES)
    def test_unreachable_sets_agree(self, body):
        from repro.analysis.verifier import verify_method
        from repro.dex.opcodes import Op

        method = method_of(body)
        cfg = build_cfg(method)
        reachable_blocks = cfg.reachable()
        cfg_dead = {
            pc
            for block in cfg.blocks
            if block.index not in reachable_blocks
            for pc in block.pcs()
            if method.instructions[pc].op not in (Op.LABEL, Op.NOP)
        }
        verifier_dead = set()
        for diag in verify_method(method):
            if diag.rule == "unreachable-code" and diag.span:
                verifier_dead.update(range(diag.span[0], diag.span[1]))
        assert cfg_dead == verifier_dead


class TestHotMethodProfile:
    """``profile_hot_methods``: how many methods are hot, and which."""

    SOURCE = (
        ".class A\n.method on_back 0\n"
        "invoke r0, A.c\ninvoke r0, A.b\ninvoke r0, A.a\nreturn_void\n.end\n"
        + "".join(f".method {name} 0\nreturn_void\n.end\n" for name in "abcd")
    )

    def _profile(self, top_fraction):
        from repro.analysis.profiler import profile_hot_methods
        from repro.dex import assemble
        from repro.vm.events import Event, EventKind

        events = [Event(EventKind.BACK, "A")] * 3
        return profile_hot_methods(
            Runtime(assemble(self.SOURCE)), events, top_fraction=top_fraction
        )

    def test_zero_fraction_marks_no_method_hot(self):
        profile = self._profile(0.0)
        assert profile.hot_methods == set()
        assert profile.candidate_methods == ["A.a", "A.b", "A.c", "A.d", "A.on_back"]

    @pytest.mark.parametrize(
        "top_fraction, hot",
        [(0.2, {"A.a"}), (0.5, {"A.a", "A.b", "A.c"})],
    )
    def test_boundary_ties_go_to_the_first_names(self, top_fraction, hot):
        # on_back, a, b and c are all invoked three times.
        profile = self._profile(top_fraction)
        assert set(profile.invocation_counts.values()) == {0, 3}
        assert profile.hot_methods == hot
