"""Live-variable analysis and region packing."""

import pytest

from repro.analysis.cfg import instruction_successors
from repro.analysis.liveness import live_registers_for_region
from repro.analysis.liveness import liveness as solve_liveness
from repro.dex import assemble_method


def method_of(body: str, params: int = 1):
    return assemble_method(body, class_name="A", name="m", params=params)


def successors_of(method):
    return instruction_successors(method.instructions, method.label_map())


def liveness(method):
    """``(live_in, live_out)`` of ``method``."""
    return solve_liveness(method.instructions, successors_of(method))


class TestLiveness:
    def test_straightline(self):
        method = method_of(
            "const r1, 5\nadd r2, r0, r1\nreturn r2"
        )
        live_in, live_out = liveness(method)
        assert live_in[0] == {0}          # r0 (param) needed, r1 defined here
        assert live_in[1] == {0, 1}
        assert live_out[2] == set()       # nothing lives past return

    def test_dead_code_has_no_liveness(self):
        method = method_of("const r1, 5\nconst r2, 6\nreturn r1")
        live_in, _ = liveness(method)
        assert 2 not in live_in[2]        # r2 never read

    def test_branch_merges_liveness(self):
        method = method_of(
            """
            if_ge r0, r0, @b
            add_lit r1, r0, 1
            return r1
        @b:
            add_lit r2, r0, 2
            return r2
            """
        )
        live_in, _ = liveness(method)
        assert live_in[0] == {0}

    def test_loop_liveness_converges(self):
        method = method_of(
            """
            const r1, 0
        @loop:
            if_ge r1, r0, @done
            add_lit r1, r1, 1
            goto @loop
        @done:
            return r1
            """
        )
        live_in, _ = liveness(method)
        # Inside the loop both the bound (r0) and counter (r1) live.
        loop_pc = method.resolve("loop")
        assert {0, 1} <= live_in[loop_pc + 1]

    def test_successors_of_switch(self):
        method = method_of(
            "switch r0, {1 -> @a}\nreturn_void\n@a:\nreturn_void"
        )
        successors = successors_of(method)
        assert set(successors[0]) == {method.resolve("a"), 1}

    def test_switch_fans_out_to_every_case(self):
        # A three-way switch has four successors: each case label plus
        # the fall-through default.
        method = method_of(
            """
            switch r0, {1 -> @a, 2 -> @b, 3 -> @c}
            return_void
        @a:
            return_void
        @b:
            return_void
        @c:
            return_void
            """
        )
        successors = successors_of(method)
        expected = {method.resolve(name) for name in ("a", "b", "c")} | {1}
        assert set(successors[0]) == expected

    def test_switch_merges_liveness_from_all_cases(self):
        # Each case reads a different register; all of them (plus the
        # scrutinee) must be live into the switch.
        method = method_of(
            """
            switch r0, {1 -> @a, 2 -> @b}
            return_void
        @a:
            return r1
        @b:
            return r2
            """,
            params=3,
        )
        live_in, _ = liveness(method)
        assert live_in[0] == {0, 1, 2}

    def test_return_keeps_only_returned_register_live(self):
        method = method_of("add r2, r0, r1\nreturn r2", params=2)
        live_in, live_out = liveness(method)
        assert live_in[1] == {2}
        assert live_out[1] == set()

    def test_return_void_kills_everything(self):
        method = method_of("add r2, r0, r1\nreturn_void", params=2)
        live_in, live_out = liveness(method)
        assert live_in[1] == set()
        assert live_out[1] == set()


class TestRegionPacking:
    def test_temporary_excluded(self):
        # Body: r2 is a pure temporary (defined and consumed inside);
        # r3 carries a value out (read after the join).
        method = method_of(
            """
            const r1, 42
            if_ne r0, r1, @skip
            add_lit r2, r0, 1
            mul_lit r3, r2, 2
        @skip:
            return r3
            """
        )
        start = 2   # add_lit
        end = 4     # @skip label
        live = live_registers_for_region(method, start, end)
        assert 3 in live      # flows out
        assert 0 in live      # flows in
        assert 2 not in live  # internal temporary

    def test_read_only_input_included(self):
        method = method_of(
            """
            const r1, 7
            if_ne r0, r1, @skip
            add r2, r0, r0
            sput r2, A.x
        @skip:
            return_void
            """
        )
        # Need a static field for sput: rebuild with a class context.
        from repro.dex import assemble

        dex = assemble(
            ".class A\n.field x static 0\n.method m 1\n"
            "const r1, 7\nif_ne r0, r1, @skip\nadd r2, r0, r0\n"
            "sput r2, A.x\n@skip:\nreturn_void\n.end"
        )
        method = dex.get_method("A.m")
        live = live_registers_for_region(method, 2, 4)
        assert 0 in live
        assert 2 not in live  # written and consumed inside

    def test_region_ending_in_unconditional_exit(self):
        # A woven region whose last instruction is a RETURN never
        # reaches the join, so only the returned register (not every
        # register the region writes) must travel out.
        method = method_of(
            """
            const r1, 3
            if_ne r0, r1, @skip
            add_lit r2, r0, 1
            add_lit r3, r0, 2
            return r2
        @skip:
            return_void
            """
        )
        live = live_registers_for_region(method, 2, 5)
        assert 0 in live      # read by the region
        assert 2 not in live  # consumed by the region's own return
        assert 3 not in live  # dead in every direction

    def test_region_ending_in_goto_uses_target_liveness(self):
        # The region exits through a GOTO; what's live at the *target*
        # decides what must be packed, not what follows textually.
        method = method_of(
            """
            const r1, 3
            if_ne r0, r1, @skip
            add_lit r2, r0, 1
            goto @tail
        @skip:
            const r2, 0
        @tail:
            return r2
            """
        )
        live = live_registers_for_region(method, 2, 4)
        assert 2 in live      # flows out through the goto to @tail

    def test_packed_bomb_still_preserves_semantics(self):
        """End-to-end: a woven bomb whose body has internal temporaries
        must round-trip values correctly through the smaller array."""
        import random

        from repro.analysis.qualified_conditions import find_qualified_conditions
        from repro.analysis.regions import body_region
        from repro.apk import Resources, build_apk
        from repro.core.config import BombDroidConfig
        from repro.core.instrumenter import Instrumenter
        from repro.crypto import RSAKeyPair
        from repro.dex import assemble
        from repro.vm import Runtime

        source = (
            ".class A\n.field x static 0\n.method m 1\n"
            "const r1, 9\nif_ne r0, r1, @skip\n"
            "add_lit r2, r0, 5\nmul_lit r3, r2, 3\nsput r3, A.x\n"
            "@skip:\nsget r4, A.x\nreturn r4\n.end"
        )
        key = RSAKeyPair.generate(seed=88)

        def outcome(transform):
            dex = assemble(source)
            if transform:
                method = dex.get_method("A.m")
                (qc,) = find_qualified_conditions(method)
                region = body_region(method, qc)
                instrumenter = Instrumenter(
                    dex, BombDroidConfig(seed=1), random.Random(1), "A",
                    key.public.fingerprint().hex(),
                )
                instrumenter.transform_weavable(method, qc, region, None)
            apk = build_apk(dex, Resources(strings={"app_name": "A"}), key)
            runtime = Runtime(dex, package=apk.install_view(), seed=1)
            return [runtime.invoke("A.m", [value]) for value in (9, 4, 9)]

        assert outcome(False) == outcome(True) == [42, 42, 42]
