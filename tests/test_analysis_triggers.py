"""The static trigger (HSO) detector: predicates, taint, scoring."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.triggers import (
    HsoFinding,
    PredicateKind,
    TriggerScan,
    _join_state,
    analyze_dex,
    analyze_method,
    compute_summaries,
    guard_entropy_bits,
)
from repro.corpus import build_app
from repro.dex import DexClass, DexFile, assemble_method, instructions as ins
from repro.dex.instructions import Instr
from repro.dex.model import DexMethod
from repro.dex.opcodes import Op

DIGEST = "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"


def method_of(body: str, params: int = 1, name: str = "m"):
    return assemble_method(body, class_name="A", name=name, params=params)


def dex_of(*methods) -> DexFile:
    dex = DexFile()
    cls = dex.add_class(DexClass(name="A"))
    for method in methods:
        cls.add_method(method)
    return dex


class TestGuardEntropy:
    def test_long_hex_counts_nibbles(self):
        assert guard_entropy_bits(DIGEST) == 4.0 * len(DIGEST)

    def test_int_counts_bits(self):
        assert guard_entropy_bits(1) == 1.0
        assert guard_entropy_bits(255) == 8.0

    def test_none_is_zero(self):
        assert guard_entropy_bits(None) == 0.0

    def test_repeated_char_string_is_low(self):
        assert guard_entropy_bits("aaaa") == 1.0

    def test_mixed_string_uses_diversity(self):
        assert 0 < guard_entropy_bits("abc") < guard_entropy_bits(DIGEST)


class TestPredicateClassification:
    def _only_finding(self, body: str, params: int = 1) -> HsoFinding:
        findings, _, _ = analyze_method(method_of(body, params=params))
        assert len(findings) == 1, findings
        return findings[0]

    def test_time_guarded_sink(self):
        finding = self._only_finding(
            """
            invoke r1, android.time.now
            const r2, 5
            if_eq r1, r2, @quiet
            const r3, "c2.example"
            invoke r4, android.net.report, r3
        @quiet:
            return_void
        """
        )
        assert finding.kind is PredicateKind.ENV_TIME
        assert "android.net.report" in finding.sinks
        assert finding.guarded_side == "fallthrough"

    def test_env_get_tag_from_variable_name(self):
        finding = self._only_finding(
            """
            const r1, "net.wifi"
            invoke r2, android.env.get, r1
            if_eqz r2, @skip
            const r3, "x"
            invoke r4, android.net.report, r3
        @skip:
            return_void
        """
        )
        assert finding.kind is PredicateKind.ENV_NET

    def test_detection_probe_with_guarded_throw(self):
        finding = self._only_finding(
            f"""
            invoke r1, android.pm.get_public_key
            const r2, "{DIGEST}"
            invoke r3, java.str.equals, r1, r2
            if_nez r3, @genuine
            const r4, "tampered"
            throw r4
        @genuine:
            return_void
        """
        )
        assert finding.kind is PredicateKind.DETECTION_PROBE
        assert finding.sinks == ("throw",)
        # The digest constant was captured through java.str.equals.
        assert finding.features["entropy_bits"] == 160.0

    def test_hashing_launders_environment_taint(self):
        # time -> sha1: the predicate must classify as opaque, NOT as
        # time-derived -- hashing is exactly how BombDroid hides X.
        body = f"""
            const r1, "time.hour"
            invoke r2, android.env.get, r1
            invoke r3, bomb.sha1_hex, r2
            const r4, "{DIGEST}"
            invoke r5, java.str.equals, r3, r4
            if_eqz r5, @out
            const r6, "x"
            invoke r7, android.net.report, r6
        @out:
            return_void
        """
        finding = self._only_finding(body)
        assert finding.kind is PredicateKind.HASH_OPAQUE

    def test_opaque_guard_without_sink_is_not_a_finding(self):
        body = f"""
            invoke r1, bomb.hash, r0
            const r2, "{DIGEST}"
            invoke r3, java.str.equals, r1, r2
            if_eqz r3, @no_match
            invoke r4, bomb.derive, r0
            invoke r5, bomb.load_run, r4
        @no_match:
            return_void
        """
        findings, opaque, classified = analyze_method(method_of(body))
        assert findings == []
        assert opaque == ["A.m@3"]
        assert classified == 1

    def test_random_guard(self):
        finding = self._only_finding(
            """
            invoke r1, java.rand.next
            const r2, 100
            if_ge r1, r2, @skip
            const r3, "x"
            invoke r4, android.reflect.call, r3
        @skip:
            return_void
        """
        )
        assert finding.kind is PredicateKind.RANDOM
        assert "android.reflect.call" in finding.sinks

    def test_field_state_guard(self):
        finding = self._only_finding(
            """
            sget r1, A.flag
            if_eqz r1, @skip
            const r2, "x"
            throw r2
        @skip:
            return_void
        """
        )
        assert finding.kind is PredicateKind.FIELD_STATE

    def test_unguarded_sink_is_silent(self):
        findings, opaque, _ = analyze_method(
            method_of('const r1, "x"\ninvoke r2, android.net.report, r1\nreturn_void')
        )
        assert findings == [] and opaque == []

    def test_clean_branch_no_sink_is_silent(self):
        findings, opaque, classified = analyze_method(
            method_of(
                "const r1, 4\nif_eq r0, r1, @t\nconst r2, 9\n@t:\nreturn r2"
            )
        )
        assert findings == [] and opaque == []
        assert classified == 1


class TestJoin:
    def test_int_and_bool_constants_join_to_unknown(self):
        # Equal as values, yet the join keeps a constant only when both
        # sides have the same type.
        tags = frozenset({"field"})
        one, true = (tags, 1), (tags, True)
        assert one == true
        assert _join_state((one,), (true,)) == ((tags, None),)

    def test_nan_constant_is_dropped_even_from_one_object(self):
        value = (frozenset({"random"}), float("nan"))
        ((tags, const),) = _join_state((value,), (value,))
        assert tags == value[0] and const is None

    def test_identical_values_join_to_themselves(self):
        value = (frozenset({"hash"}), "abc")
        other = (frozenset({"env.time"}), None)
        assert _join_state((value, other), (value, other)) == (value, other)


class TestInterprocedural:
    def test_return_taint_flows_through_helper(self):
        helper = method_of(
            'const r1, "time.hour"\ninvoke r2, android.env.get, r1\nreturn r2',
            params=0,
            name="clock",
        )
        main = method_of(
            """
            invoke r1, A.clock
            const r2, 3
            if_eq r1, r2, @skip
            const r3, "x"
            invoke r4, android.net.report, r3
        @skip:
            return_void
        """,
            name="main",
        )
        dex = dex_of(helper, main)
        scan = analyze_dex(dex)
        (finding,) = [f for f in scan.findings if f.method == "A.main"]
        assert finding.kind is PredicateKind.ENV_TIME

    def test_sink_reached_through_callee_is_attenuated(self):
        helper = method_of(
            'const r1, "x"\ninvoke r2, android.net.report, r1\nreturn_void',
            params=0,
            name="phone_home",
        )
        main = method_of(
            """
            const r1, 9
            if_ne r0, r1, @skip
            invoke r2, A.phone_home
        @skip:
            return_void
        """,
            name="main",
        )
        direct = method_of(
            """
            const r1, 9
            if_ne r0, r1, @skip
            const r2, "x"
            invoke r3, android.net.report, r2
        @skip:
            return_void
        """,
            name="direct",
        )
        scan = analyze_dex(dex_of(helper, main, direct), min_score=0.0)
        by_method = {f.method: f for f in scan.findings}
        assert "via A.phone_home: android.net.report" in by_method["A.main"].sinks
        assert by_method["A.main"].score < by_method["A.direct"].score

    def test_summaries_expose_sinks_and_tags(self):
        helper = method_of(
            'const r1, "time.hour"\ninvoke r2, android.env.get, r1\nreturn r2',
            params=0,
            name="clock",
        )
        sink = method_of(
            'const r1, "x"\ninvoke r2, android.net.report, r1\nreturn_void',
            params=0,
            name="phone_home",
        )
        summaries = compute_summaries(dex_of(helper, sink))
        assert "env.time" in summaries["A.clock"].return_tags
        assert summaries["A.phone_home"].sink_name == "android.net.report"
        assert summaries["A.phone_home"].sink_weight == 4.0

    def test_equal_weight_sinks_resolve_to_the_first_callee(self):
        # Six helpers reach three equally weighted pm.* sinks.  Callee
        # order used to follow set iteration, so the representative
        # sink changed with PYTHONHASHSEED; the first callee must win.
        script = textwrap.dedent(
            """
            from repro.analysis.triggers import compute_summaries
            from repro.dex import DexClass, DexFile, assemble_method

            sinks = ["get_method_hash", "get_public_key", "get_manifest_digest"]
            dex = DexFile()
            cls = dex.add_class(DexClass(name="A"))
            calls = "\\n".join(f"invoke r1, A.h{i}" for i in range(6))
            cls.add_method(assemble_method(
                calls + "\\nreturn_void", class_name="A", name="main"
            ))
            for i in range(6):
                cls.add_method(assemble_method(
                    f"invoke r1, android.pm.{sinks[i % 3]}\\nreturn_void",
                    class_name="A", name=f"h{i}",
                ))
            summary = compute_summaries(dex)["A.main"]
            print(summary.sink_name, summary.sink_weight, summary.sink_depth)
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        seen = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            seen.add(out.stdout.strip())
        assert seen == {"android.pm.get_method_hash 3.0 1"}

    def test_no_method_is_walked_twice_on_the_same_callee_tags(self, monkeypatch):
        # A return-taint walk reads only its callees' return tags, so a
        # second walk on unchanged callee tags cannot change anything.
        from repro.analysis import triggers

        walks = []

        class Recording(triggers._TaintWalker):
            def run(self):
                callees = sorted({
                    instr.value for instr in self.method.instructions
                    if instr.op is Op.INVOKE and instr.value in self.summaries
                })
                walks.append((
                    self.method.qualified_name,
                    tuple(self.summaries[c].return_tags for c in callees),
                ))
                return super().run()

        monkeypatch.setattr(triggers, "_TaintWalker", Recording)
        compute_summaries(build_app("Walk", category="Security", seed=1, scale=0.25).dex)
        assert len(set(walks)) == len(walks)
        # The fixpoint did need second walks, so the check has teeth.
        assert len(walks) > len({name for name, _ in walks})


class TestScoring:
    def test_high_entropy_guard_outranks_low(self):
        template = """
            invoke r1, android.pm.get_public_key
            const r2, {const}
            invoke r3, java.str.equals, r1, r2
            if_nez r3, @ok
            const r4, "x"
            throw r4
        @ok:
            return_void
        """
        (high,), _, _ = analyze_method(method_of(template.format(const=f'"{DIGEST}"')))
        (low,), _, _ = analyze_method(method_of(template.format(const='"ab"')))
        assert high.score > low.score

    def test_min_score_filters_and_ranks(self):
        body = """
            sget r1, A.flag
            if_eqz r1, @skip
            const r2, "x"
            throw r2
        @skip:
            return_void
        """
        method = method_of(body)
        scan_all = analyze_dex(dex_of(method), min_score=0.0)
        assert len(scan_all.findings) == 1
        scan_strict = analyze_dex(dex_of(method_of(body)), min_score=100.0)
        assert scan_strict.findings == []
        assert scan_strict.branches_classified == 1

    def test_scan_counts_and_by_kind(self):
        scan = analyze_dex(dex_of(method_of("return r0")))
        assert isinstance(scan, TriggerScan)
        assert scan.methods_scanned == 1
        assert scan.by_kind() == {}

    @pytest.mark.parametrize("bad", [
        ins.if_eqz(0, "nowhere"),
        # A serialized dex may carry any constant as a switch table.
        Instr(Op.SWITCH, a=0, value=5),
    ], ids=["undefined-label", "switch-table-no-dict"])
    def test_malformed_control_flow_skips_only_that_method(self, bad):
        # Broken control flow is the verifier's problem: the scan skips
        # that method and still scans the good one.
        broken = DexMethod(
            name="bad", class_name="A", params=1, registers=1,
            instructions=[bad, ins.ret_void()],
        )
        scan = analyze_dex(dex_of(method_of("return r0"), broken))
        assert scan.methods_scanned == 2
        assert scan.methods_skipped == 1

    def test_finding_serialization_roundtrip(self):
        body = """
            sget r1, A.flag
            if_eqz r1, @skip
            const r2, "x"
            throw r2
        @skip:
            return_void
        """
        (finding,), _, _ = analyze_method(method_of(body))
        payload = finding.to_dict()
        assert payload["method"] == "A.m"
        assert payload["kind"] == "field_state"
        assert finding.site == f"A.m@{payload['branch_pc']}"
        diag = finding.to_diagnostic()
        assert diag.rule == "hso-finding"
        assert diag.method == "A.m"
