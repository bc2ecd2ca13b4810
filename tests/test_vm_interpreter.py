"""Interpreter semantics: arithmetic, control flow, heap, budgets."""

import pytest
from hypothesis import given, strategies as st

from repro.dex import assemble, assemble_method, DexFile, DexClass
from repro.errors import BudgetExhausted, MethodNotFound, VMCrash
from repro.vm import CountingTracer, CoverageTracer, Runtime
from repro.vm.values import INT32_MAX, INT32_MIN, to_int32


def run_main(body: str, args=(), params=0):
    """Assemble a single method and execute it."""
    dex = DexFile()
    cls = dex.add_class(DexClass(name="T"))
    cls.add_method(assemble_method(body, class_name="T", name="m", params=params))
    runtime = Runtime(dex)
    return runtime.invoke("T.m", list(args)), runtime


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 2, 3, 5),
            ("sub", 2, 3, -1),
            ("mul", -4, 3, -12),
            ("div", 7, 2, 3),
            ("div", -7, 2, -3),   # Java semantics: truncation toward zero
            ("rem", 7, 2, 1),
            ("rem", -7, 2, -1),   # sign follows the dividend
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("shl", 1, 4, 16),
            ("shr", 16, 4, 1),
        ],
    )
    def test_binops(self, op, a, b, expected):
        result, _ = run_main(f"{op} r2, r0, r1\nreturn r2", args=[a, b], params=2)
        assert result == expected

    def test_add_wraps_32_bits(self):
        result, _ = run_main("add r2, r0, r1\nreturn r2", args=[INT32_MAX, 1], params=2)
        assert result == INT32_MIN

    def test_mul_wraps(self):
        result, _ = run_main(
            "mul r2, r0, r1\nreturn r2", args=[2**20, 2**20], params=2
        )
        assert result == to_int32(2**40)

    def test_fall_off_end_crashes(self):
        with pytest.raises(VMCrash, match="fell off"):
            run_main("add r2, r0, r1", args=[1, 2], params=2)

    def test_division_by_zero_crashes(self):
        with pytest.raises(VMCrash, match="zero"):
            run_main("div r2, r0, r1\nreturn r2", args=[1, 0], params=2)

    def test_rem_lit_zero_crashes(self):
        with pytest.raises(VMCrash):
            run_main("rem_lit r1, r0, 0\nreturn r1", args=[5], params=1)

    def test_int_op_on_string_crashes(self):
        with pytest.raises(VMCrash, match="expected int"):
            run_main("add r2, r0, r1\nreturn r2", args=["x", 2], params=2)

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_to_int32_is_idempotent(self, value):
        assert to_int32(to_int32(value)) == to_int32(value)
        assert INT32_MIN <= to_int32(value) <= INT32_MAX


class TestControlFlow:
    def test_loop_sum(self):
        body = """
            const r1, 0
            const r2, 0
        @loop:
            if_ge r2, r0, @done
            add r1, r1, r2
            add_lit r2, r2, 1
            goto @loop
        @done:
            return r1
        """
        result, _ = run_main(body, args=[10], params=1)
        assert result == 45

    def test_switch_dispatch(self):
        body = """
            switch r0, {1 -> @a, 2 -> @b}
            const r1, 0
            return r1
        @a:
            const r1, 10
            return r1
        @b:
            const r1, 20
            return r1
        """
        assert run_main(body, args=[1], params=1)[0] == 10
        assert run_main(body, args=[2], params=1)[0] == 20
        assert run_main(body, args=[3], params=1)[0] == 0  # falls through

    def test_if_eq_cross_type_never_equal(self):
        body = """
            if_eq r0, r1, @same
            const r2, 0
            return r2
        @same:
            const r2, 1
            return r2
        """
        assert run_main(body, args=["1", 1], params=2)[0] == 0

    def test_if_eq_bool_int_interop(self):
        body = """
            if_eq r0, r1, @same
            const r2, 0
            return r2
        @same:
            const r2, 1
            return r2
        """
        assert run_main(body, args=[True, 1], params=2)[0] == 1

    def test_if_eqz_on_empty_string_and_null(self):
        body = """
            if_eqz r0, @zeroish
            const r1, 0
            return r1
        @zeroish:
            const r1, 1
            return r1
        """
        assert run_main(body, args=[""], params=1)[0] == 1
        assert run_main(body, args=[None], params=1)[0] == 1
        assert run_main(body, args=["x"], params=1)[0] == 0

    @pytest.mark.parametrize("left", ["a", None])
    def test_cmp_of_unordered_operands_crashes(self, left):
        with pytest.raises(VMCrash, match="cmp: cannot order"):
            run_main("cmp r2, r0, r1\nreturn r2", args=[left, 1], params=2)

    def test_cmp_of_two_strings_orders_them(self):
        body = "cmp r2, r0, r1\nreturn r2"
        assert run_main(body, args=["a", "b"], params=2)[0] == -1
        assert run_main(body, args=["b", "b"], params=2)[0] == 0

    def test_switch_on_array_crashes(self):
        body = """
            const r0, 2
            new_array r1, r0
            switch r1, {1 -> @one}
            return r0
        @one:
            return r1
        """
        with pytest.raises(VMCrash, match="switch: unhashable key of type list"):
            run_main(body)

    def test_throw_carries_message(self):
        with pytest.raises(VMCrash, match="boom"):
            run_main('const r0, "boom"\nthrow r0')

    def test_budget_exhaustion(self):
        dex = DexFile()
        cls = dex.add_class(DexClass(name="T"))
        cls.add_method(
            assemble_method("@spin:\ngoto @spin", class_name="T", name="m", params=0)
        )
        runtime = Runtime(dex)
        with pytest.raises(BudgetExhausted):
            runtime.invoke("T.m", [], budget=1000)


class TestHeap:
    def test_array_lifecycle(self):
        body = """
            const r0, 3
            new_array r1, r0
            const r2, 0
            const r3, 42
            aput r3, r1, r2
            aget r4, r1, r2
            array_len r5, r1
            add r6, r4, r5
            return r6
        """
        assert run_main(body)[0] == 45

    def test_array_bounds_checked(self):
        body = """
            const r0, 2
            new_array r1, r0
            const r2, 5
            aget r3, r1, r2
            return r3
        """
        with pytest.raises(VMCrash, match="out of bounds"):
            run_main(body)

    def test_negative_array_length(self):
        with pytest.raises(VMCrash):
            run_main("const r0, -1\nnew_array r1, r0\nreturn_void")

    def test_instance_fields(self):
        source = """
        .class Box
        .field contents 7
        .method m 0
            new_instance r0, Box
            iget r1, r0, contents
            const r2, 3
            iput r2, r0, contents
            iget r3, r0, contents
            add r4, r1, r3
            return r4
        .end
        """
        runtime = Runtime(assemble(source))
        assert runtime.invoke("Box.m", []) == 10

    def test_iget_on_null_crashes(self):
        with pytest.raises(VMCrash, match="non-object"):
            run_main("const r0, null\niget r1, r0, f\nreturn r1")


class TestInvocation:
    def test_app_method_call(self):
        source = """
        .class A
        .method double 1
            mul_lit r1, r0, 2
            return r1
        .end
        .method m 1
            invoke r1, A.double, r0
            return r1
        .end
        """
        assert Runtime(assemble(source)).invoke("A.m", [21]) == 42

    def test_unknown_method_crashes(self):
        with pytest.raises(VMCrash, match="unknown method"):
            run_main("invoke r0, No.where\nreturn_void")

    def test_invoke_missing_via_runtime_raises(self):
        runtime = Runtime(DexFile())
        with pytest.raises(MethodNotFound):
            runtime.invoke("Ghost.m", [])

    def test_recursion_depth_limited(self):
        source = """
        .class A
        .method m 1
            invoke r1, A.m, r0
            return r1
        .end
        """
        with pytest.raises(VMCrash, match="depth"):
            Runtime(assemble(source)).invoke("A.m", [0], budget=10**6)

    def test_arg_count_checked(self):
        source = """
        .class A
        .method m 2
            return r0
        .end
        """
        with pytest.raises(VMCrash, match="takes 2"):
            Runtime(assemble(source)).invoke("A.m", [1])


class TestTracers:
    def test_counting_tracer(self):
        dex = DexFile()
        cls = dex.add_class(DexClass(name="T"))
        cls.add_method(
            assemble_method("const r0, 1\nadd r0, r0, r0\nreturn r0", class_name="T", name="m")
        )
        tracer = CountingTracer()
        runtime = Runtime(dex, tracer=tracer)
        runtime.invoke("T.m", [])
        assert tracer.instructions == 3
        assert tracer.invocations.get("T.m") == 1

    def test_coverage_tracer_branches(self):
        body = """
            if_ge r0, r1, @skip
            const r2, 1
        @skip:
            return_void
        """
        dex = DexFile()
        cls = dex.add_class(DexClass(name="T"))
        cls.add_method(assemble_method(body, class_name="T", name="m", params=2))
        tracer = CoverageTracer()
        runtime = Runtime(dex, tracer=tracer)
        runtime.invoke("T.m", [0, 1])
        runtime.invoke("T.m", [1, 0])
        outcomes = next(iter(tracer.branches.values()))
        assert outcomes == {True, False}
        assert 0.0 < tracer.instruction_coverage_of(dex) <= 1.0
