"""Site transformation: every bomb shape must preserve app semantics.

The strategy throughout: build a method, transform one QC into a bomb,
then run original and transformed code side by side on the same inputs
and assert identical observable behavior (return values and static
state).
"""

import random

import pytest

from repro.analysis.qualified_conditions import find_qualified_conditions
from repro.analysis.regions import body_region
from repro.apk import Resources, build_apk
from repro.core.config import BombDroidConfig
from repro.core.instrumenter import Instrumenter, MethodEditor
from repro.core.stats import BombOrigin
from repro.crypto import RSAKeyPair
from repro.dex import assemble
from repro.errors import InstrumentationError
from repro.vm import Runtime


#: One developer key for every dual-run test: the instrumenter bakes its
#: fingerprint into detection payloads and the harness installs apps
#: signed with it, so a *genuine* run never fires a response.
_TEST_KEY = RSAKeyPair.generate(seed=77)


def make_instrumenter(dex, seed=0, **config_kwargs):
    config = BombDroidConfig(seed=seed, **config_kwargs)
    return Instrumenter(
        dex,
        config,
        random.Random(seed),
        app_name="T",
        original_key_hex=_TEST_KEY.public.fingerprint().hex(),
        app_static_fields=[
            f"{cls.name}.{f.name}"
            for cls in dex.classes.values()
            for f in cls.static_fields()
        ],
    )


def dual_run(source, method, inputs, transform):
    """Yield (original_results, transformed_results) over ``inputs``.

    Results are (return_value, app_statics) pairs; VM crashes surface
    as strings so both sides can be compared.
    """

    def run_suite(dex):
        apk = build_apk(dex, Resources(strings={"app_name": "T"}), _TEST_KEY)
        package = apk.install_view()
        out = []
        for args in inputs:
            runtime = Runtime(dex, package=package, seed=1)
            try:
                value = runtime.session().invoke(method, list(args)).value
            except Exception as exc:
                value = f"crash:{type(exc).__name__}"
            state = {
                key: val for key, val in runtime.statics.items()
                if not key.startswith("Bomb$")
            }
            out.append((value, state))
        return out

    original = run_suite(assemble(source))
    transformed_dex = assemble(source)
    transform(transformed_dex)
    transformed = run_suite(transformed_dex)
    return original, transformed


IF_NE_SOURCE = """
.class T
.field total static 0
.method m 1
    const r1, 42
    if_ne r0, r1, @skip
    sget r2, T.total
    add_lit r2, r2, 7
    sput r2, T.total
@skip:
    sget r3, T.total
    add_lit r3, r3, 1
    sput r3, T.total
    return r3
.end
"""


class TestWeavableTransform:
    def transform(self, dex, real=True):
        method = dex.get_method("T.m")
        (qc,) = find_qualified_conditions(method)
        region = body_region(method, qc)
        instrumenter = make_instrumenter(dex)
        bomb = instrumenter.transform_weavable(method, qc, region, None, real=real)
        return bomb

    def test_semantics_preserved(self):
        inputs = [(42,), (0,), (41,), (43,), (42,)]
        original, transformed = dual_run(
            IF_NE_SOURCE, "T.m", inputs, lambda dex: self.transform(dex)
        )
        assert original == transformed

    def test_body_moved_out_of_cleartext(self):
        dex = assemble(IF_NE_SOURCE)
        self.transform(dex)
        from repro.dex.disassembler import disassemble_method

        listing = disassemble_method(dex.get_method("T.m"))
        assert "add_lit r2, r2, 7" not in listing   # the woven body is gone
        assert "bomb.hash" in listing

    def test_trigger_constant_removed(self):
        dex = assemble(IF_NE_SOURCE)
        bomb = self.transform(dex)
        from repro.dex.disassembler import disassemble_method

        listing = disassemble_method(dex.get_method("T.m"))
        assert "const r1, 42" not in listing
        assert bomb.const_value == 42

    def test_bogus_bomb_has_no_detection(self):
        dex = assemble(IF_NE_SOURCE)
        bomb = self.transform(dex, real=False)
        assert bomb.origin is BombOrigin.BOGUS
        assert bomb.detection is None
        inputs = [(42,), (1,)]
        original, transformed = dual_run(
            IF_NE_SOURCE, "T.m", inputs, lambda d: self.transform(d, real=False)
        )
        assert original == transformed


RETURNING_BODY_SOURCE = """
.class T
.field total static 0
.method m 1
    const r1, 9
    if_ne r0, r1, @skip
    const r2, 777
    return r2
@skip:
    const r3, 1
    return r3
.end
"""


class TestReturnInWovenBody:
    def test_return_propagates_through_control_slot(self):
        def transform(dex):
            method = dex.get_method("T.m")
            (qc,) = find_qualified_conditions(method)
            region = body_region(method, qc)
            make_instrumenter(dex).transform_weavable(method, qc, region, None)

        inputs = [(9,), (8,)]
        original, transformed = dual_run(RETURNING_BODY_SOURCE, "T.m", inputs, transform)
        assert original == transformed
        assert original[0][0] == 777


IF_EQ_SOURCE = """
.class T
.field total static 0
.method m 1
    const r1, 13
    if_eq r0, r1, @special
    sget r2, T.total
    add_lit r2, r2, 1
    sput r2, T.total
    return r2
@special:
    const r3, -1
    return r3
.end
"""


class TestPayloadOnlyTransform:
    def test_if_eq_semantics_preserved(self):
        def transform(dex):
            method = dex.get_method("T.m")
            (qc,) = find_qualified_conditions(method)
            make_instrumenter(dex).transform_payload_only(method, qc, None)

        inputs = [(13,), (12,), (14,), (13,)]
        original, transformed = dual_run(IF_EQ_SOURCE, "T.m", inputs, transform)
        assert original == transformed


STR_SOURCE = """
.class T
.field hits static 0
.method m 1
    const r1, "open sesame"
    invoke r2, java.str.equals, r0, r1
    if_eqz r2, @no
    sget r3, T.hits
    add_lit r3, r3, 1
    sput r3, T.hits
@no:
    sget r4, T.hits
    return r4
.end
"""


class TestStringEqualsTransform:
    def test_semantics_preserved(self):
        def transform(dex):
            method = dex.get_method("T.m")
            (qc,) = find_qualified_conditions(method)
            region = body_region(method, qc)
            make_instrumenter(dex).transform_weavable(method, qc, region, None)

        inputs = [("open sesame",), ("wrong",), ("open sesame",), ("",)]
        original, transformed = dual_run(STR_SOURCE, "T.m", inputs, transform)
        assert original == transformed

    def test_secret_string_removed_from_code(self):
        dex = assemble(STR_SOURCE)
        method = dex.get_method("T.m")
        (qc,) = find_qualified_conditions(method)
        region = body_region(method, qc)
        make_instrumenter(dex).transform_weavable(method, qc, region, None)
        from repro.dex.disassembler import disassemble

        assert "open sesame" not in disassemble(dex)


SWITCH_SOURCE = """
.class T
.field total static 0
.method m 1
    switch r0, {3 -> @three, 8 -> @eight}
    const r1, 0
    return r1
@three:
    const r1, 30
    sput r1, T.total
    goto @join
@eight:
    const r1, 80
    sput r1, T.total
    goto @join
@join:
    sget r2, T.total
    return r2
.end
"""


class TestSwitchCaseTransform:
    def _transform(self, dex, weave):
        method = dex.get_method("T.m")
        qcs = find_qualified_conditions(method)
        qc = next(q for q in qcs if q.case_key == 3)
        region = body_region(method, qc) if weave else None
        make_instrumenter(dex)._transform_switch(method, qc, region, None, True)

    @pytest.mark.parametrize("weave", [False, True])
    def test_semantics_preserved(self, weave):
        inputs = [(3,), (8,), (5,), (3,)]
        original, transformed = dual_run(
            SWITCH_SOURCE, "T.m", inputs, lambda dex: self._transform(dex, weave)
        )
        assert original == transformed

    def test_key_removed_from_table(self):
        dex = assemble(SWITCH_SOURCE)
        self._transform(dex, weave=False)
        from repro.dex.opcodes import Op

        method = dex.get_method("T.m")
        tables = [i.value for i in method.instructions if i.op is Op.SWITCH]
        assert all(3 not in table for table in tables)


class TestArtificialInsertion:
    def test_inserted_bomb_is_transparent(self):
        source = IF_NE_SOURCE

        def transform(dex):
            method = dex.get_method("T.m")
            make_instrumenter(dex).insert_artificial(method, 0, "T.total", 500, None)

        inputs = [(42,), (1,)]
        original, transformed = dual_run(source, "T.m", inputs, transform)
        assert original == transformed

    def test_bomb_record_fields(self):
        dex = assemble(IF_NE_SOURCE)
        method = dex.get_method("T.m")
        bomb = make_instrumenter(dex).insert_artificial(method, 0, "T.total", 500, None)
        assert bomb.origin is BombOrigin.ARTIFICIAL
        assert bomb.const_value == 500
        assert not bomb.woven


class TestEditor:
    def test_splice_bounds_checked(self):
        dex = assemble(IF_NE_SOURCE)
        editor = MethodEditor(dex.get_method("T.m"))
        with pytest.raises(InstrumentationError):
            editor.splice(5, 999, [])

    def test_fresh_labels_never_collide(self):
        dex = assemble(IF_NE_SOURCE)
        editor = MethodEditor(dex.get_method("T.m"))
        labels = {editor.fresh_label() for _ in range(100)}
        assert len(labels) == 100
