"""The strict gate's diagnostics and protect's bytes stay exact.

The ``hso-localizable`` rule scans only bomb host methods and the
dataflow joins take identity shortcuts; :mod:`tests.triggers_reference`
keeps the whole-dex rule with plain joins.  Both must give the same
diagnostics, in the same order, on protected apps of every category and
on generated programs whose bomb sites leak a sensitive sink.
"""

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apk.io import apk_to_bytes
from repro.core import BombDroid, BombDroidConfig
from repro.corpus import CATEGORY_PROFILES, build_app
from repro.dex import DexClass, DexFile, assemble_method
from repro.errors import VerificationError
from repro.lint import run_lint
from repro.vm.aliases import alias_table_from_resources

from tests.triggers_reference import reference_run_lint

CATEGORIES = [profile.name for profile in CATEGORY_PROFILES]

SINKS = (
    "android.pm.get_public_key",
    "android.pm.get_manifest_digest",
    "android.pm.get_method_hash",
    "android.net.report",
    "android.reflect.call",
)

DIGEST = "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"

_slow = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def formatted(diagnostics):
    return [diag.format() for diag in diagnostics]


@_slow
@given(
    category=st.sampled_from(CATEGORIES),
    seed=st.integers(min_value=0, max_value=10_000),
    mesh=st.booleans(),
)
def test_protected_app_lint_matches_reference(category, seed, mesh):
    bundle = build_app("Gate", category=category, seed=seed, scale=0.12)
    config = BombDroidConfig(seed=seed, profiling_events=150, mesh=mesh)
    result = BombDroid(config).protect(bundle.apk, bundle.developer_key)
    dex = result.apk.dex()
    aliases = alias_table_from_resources(result.apk.resources().strings) or None
    assert formatted(run_lint(dex, report=result.report, aliases=aliases)) == formatted(
        reference_run_lint(dex, report=result.report, aliases=aliases)
    )


def _site(k: int, leak: str) -> list:
    """A Listing-3 bomb site whose guarded region runs ``leak``."""
    return [
        f'const r1, "73616c74{k:02x}"',
        f'const r2, "b{k:03d}"',
        "invoke r3, bomb.hash, r0, r1, r2",
        f'const r4, "{DIGEST}"',
        "invoke r5, java.str.equals, r3, r4",
        f"if_eqz r5, @no_match{k}",
        "const r6, 2",
        "new_array r7, r6",
        "invoke r8, bomb.derive, r0, r1",
        'const r9, "00ff"',
        "invoke r10, bomb.load_run, r8, r9, r7, r0",
        leak,
        f"@no_match{k}:",
    ]


@st.composite
def leaky_dex(draw) -> DexFile:
    """Methods mixing sinks, calls (cycles included), guards, clock
    reads, ``1``/``true`` merges and bomb sites that leak."""
    count = draw(st.integers(min_value=2, max_value=6))
    callee = st.integers(min_value=0, max_value=count - 1).map(
        lambda j: f"invoke r2, A.m{j}, r0"
    )
    leak = st.one_of(
        st.sampled_from(SINKS).map(lambda s: f"invoke r2, {s}"),
        callee,
        st.just("throw r9"),
        st.just("nop"),
    )
    chunk = st.sampled_from(("leak", "guard", "site", "time", "merge"))
    dex = DexFile()
    cls = dex.add_class(DexClass(name="A"))
    for index in range(count):
        lines = []
        for k, kind in enumerate(draw(st.lists(chunk, min_size=1, max_size=6))):
            if kind == "leak":
                lines.append(draw(leak))
            elif kind == "guard":
                lines += [
                    f"const r1, {draw(st.integers(min_value=0, max_value=3))}",
                    f"if_eq r0, r1, @g{k}",
                    draw(leak),
                    f"@g{k}:",
                ]
            elif kind == "site":
                lines += _site(k, draw(leak))
            elif kind == "time":
                lines.append("invoke r0, android.time.now")
            else:
                lines += [
                    f"if_eqz r0, @t{k}",
                    "const r11, 1",
                    f"goto @e{k}",
                    f"@t{k}:",
                    "const r11, true",
                    f"@e{k}:",
                    f"if_eq r0, r11, @g{k}",
                    draw(leak),
                    f"@g{k}:",
                ]
        lines.append("return r0")
        cls.add_method(
            assemble_method("\n".join(lines), class_name="A", name=f"m{index}", params=1)
        )
    return dex


@settings(max_examples=60, deadline=None)
@given(dex=leaky_dex())
def test_leaky_program_lint_matches_reference(dex):
    assert formatted(run_lint(dex)) == formatted(reference_run_lint(dex))


def test_leak_through_a_helper_is_localized_like_the_reference():
    host = assemble_method(
        "\n".join(_site(0, "invoke r2, A.helper, r0") + ["return r0"]),
        class_name="A",
        name="host",
        params=1,
    )
    helper = assemble_method(
        "invoke r2, android.pm.get_public_key\nreturn r0",
        class_name="A",
        name="helper",
        params=1,
    )
    unrelated = assemble_method(
        "invoke r2, android.net.report\nreturn r0",
        class_name="A",
        name="unrelated",
        params=1,
    )
    dex = DexFile()
    cls = dex.add_class(DexClass(name="A"))
    for method in (host, helper, unrelated):
        cls.add_method(method)
    diagnostics = run_lint(dex, rules=["hso-localizable"])
    assert [diag.method for diag in diagnostics] == ["A.host"]
    assert "via A.helper: android.pm.get_public_key" in diagnostics[0].message
    assert formatted(run_lint(dex)) == formatted(reference_run_lint(dex))


# ---------------------------------------------------------------------------
# Protect's output pinned on two loop-bench corpus apps.  The apps are
# the loop bench's Bench0x0 (Game, scale 0.25) and Bench0x3 (Writing,
# scale 0.25); their build seeds are its derive_seed(0, "protect", 0,
# slot).  The pinned values were taken before the gate was made cheap.
# ---------------------------------------------------------------------------

_BENCH_CONFIG = BombDroidConfig(seed=0, profiling_events=300)


def _strict_protect(name, category, seed):
    bundle = build_app(name, category, seed=seed, scale=0.25)
    return BombDroid(_BENCH_CONFIG).protect(bundle.apk, bundle.developer_key, strict=True)


def test_rejected_bench_app_keeps_its_gate_diagnostics():
    try:
        _strict_protect("Bench0x0", "Game", 483331111)
    except VerificationError as exc:
        found = sorted((d.rule, d.method, d.span) for d in exc.diagnostics)
    else:
        raise AssertionError("Bench0x0 passed the strict gate")
    assert found == [
        ("leaked-trigger-const", "Bench0x0.on_sensor", (2, 3)),
        ("leaked-trigger-const", "Bench0x01.calc4", (38, 39)),
    ]


def test_accepted_bench_app_keeps_its_protected_bytes():
    result = _strict_protect("Bench0x3", "Writing", 1575102537)
    digest = hashlib.sha1(apk_to_bytes(result.apk)).hexdigest()
    assert digest == "61810f142d26e82594c911bef5e40ed5ddc1e500"
