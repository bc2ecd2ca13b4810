"""Framework API surface, device model, events."""

import pytest

from repro.apk import Resources, build_apk
from repro.crypto import RSAKeyPair, Salt, derive_key, hash_constant, sha1_hex
from repro.dex import assemble, DexClass, DexFile, assemble_method
from repro.errors import VMCrash
from repro.vm import Runtime
from repro.vm.device import (
    ChoiceDomain,
    DevicePopulation,
    ENV_DOMAINS,
    IntDomain,
    attacker_lab_profiles,
)
from repro.vm.events import ARITY, Event, EventKind, declared_events, random_args
import random


def fresh_runtime(body: str, params: int = 0, package=None, device=None):
    dex = DexFile()
    cls = dex.add_class(DexClass(name="T"))
    cls.add_method(assemble_method(body, class_name="T", name="m", params=params))
    return Runtime(dex, package=package, device=device)


def call_api(runtime, name, args, budget=1000):
    """One framework call under a fresh session."""
    return runtime.framework.call(name, args, runtime.session(budget=budget))


class TestStringApis:
    @pytest.mark.parametrize(
        "call,args,expected",
        [
            ("java.str.equals", ["abc", "abc"], True),
            ("java.str.equals", ["abc", "abd"], False),
            ("java.str.equals", [5, "5"], False),
            ("java.str.starts_with", ["hello", "he"], True),
            ("java.str.ends_with", ["hello", "lo"], True),
            ("java.str.contains", ["hello", "ell"], True),
            ("java.str.length", ["four"], 4),
            ("java.str.concat", ["ab", "cd"], "abcd"),
            ("java.str.substring", ["hello", 1, 3], "el"),
            ("java.str.char_at", ["A", 0], 65),
            ("java.str.index_of", ["hello", "ll"], 2),
            ("java.str.from_int", [42], "42"),
            ("java.str.to_int", ["42"], 42),
            ("java.math.abs", [-9], 9),
            ("java.math.min", [3, 5], 3),
            ("java.math.max", [3, 5], 5),
        ],
    )
    def test_library_calls(self, call, args, expected):
        runtime = fresh_runtime("return_void")
        assert call_api(runtime, call, list(args), budget=10_000) == expected

    def test_java_hash_code_matches_java(self):
        runtime = fresh_runtime("return_void")
        # Java's String.hashCode("hello") == 99162322.
        assert call_api(runtime, "java.str.hash_code", ["hello"]) == 99162322

    def test_substring_bounds(self):
        runtime = fresh_runtime("return_void")
        with pytest.raises(VMCrash):
            call_api(runtime, "java.str.substring", ["abc", 2, 9])

    def test_to_int_crashes_on_garbage(self):
        runtime = fresh_runtime("return_void")
        with pytest.raises(VMCrash):
            call_api(runtime, "java.str.to_int", ["nope"])


class TestBombHelpers:
    def test_hash_matches_kdf(self):
        runtime = fresh_runtime("return_void")
        salt = Salt.from_seed(4)
        expected = hash_constant(42, salt).hex()
        got = call_api(runtime, "bomb.hash", [42, salt.value.hex(), "b1"])
        assert got == expected
        assert runtime.bombs.counts["b1"]["evaluated"] == 1

    def test_hash_of_unencodable_returns_sentinel(self):
        runtime = fresh_runtime("return_void")
        got = call_api(runtime, "bomb.hash", [None, "00" * 12, "b1"])
        assert got == "00" * 20

    def test_derive_matches_kdf(self):
        runtime = fresh_runtime("return_void")
        salt = Salt.from_seed(4)
        got = call_api(runtime, "bomb.derive", ["x", salt.value.hex()])
        assert got == derive_key("x", salt)

    def test_decrypt_roundtrip_and_stat(self):
        from repro.crypto import AES128

        runtime = fresh_runtime("return_void")
        key = bytes(16)
        blob = AES128(key).encrypt_cbc(b"payload", b"\x00" * 16)
        got = call_api(runtime, "bomb.decrypt", [blob, key, "b9"])
        assert got == b"payload"
        assert "b9" in runtime.bombs.bombs_with("outer_satisfied")

    def test_decrypt_wrong_key_crashes(self):
        from repro.crypto import AES128

        runtime = fresh_runtime("return_void")
        blob = AES128(bytes(16)).encrypt_cbc(b"payload", b"\x00" * 16)
        with pytest.raises(VMCrash, match="decryption failed"):
            call_api(runtime, "bomb.decrypt", [blob, bytes([1]) * 16, "b9"])

    def test_sha1_hex_call(self):
        runtime = fresh_runtime("return_void")
        assert call_api(runtime, "bomb.sha1_hex", [b"abc"]) == sha1_hex(b"abc")

    def test_method_hash_detects_modification(self):
        from repro.dex.hashing import method_instruction_hash
        from repro.dex import instructions as ins

        runtime = fresh_runtime("const r0, 1\nreturn r0")
        method = runtime.find_method("T.m")
        before = call_api(runtime, "android.pm.get_method_hash", ["T.m"])
        assert before == method_instruction_hash(method)
        method.instructions[0] = ins.const(0, 2)
        method.invalidate()
        after = call_api(runtime, "android.pm.get_method_hash", ["T.m"])
        assert after != before


class TestPackageApis:
    def test_require_install(self):
        runtime = fresh_runtime("return_void")
        with pytest.raises(VMCrash, match="not installed"):
            call_api(runtime, "android.pm.get_public_key", [])

    def test_installed_surface(self):
        dex = assemble(".class A\n.method m 0\nreturn_void\n.end")
        key = RSAKeyPair.generate(seed=2)
        apk = build_apk(dex, Resources(strings={"s": "v"}), key)
        runtime = Runtime(dex, package=apk.install_view())
        ctx = runtime.session(budget=10_000)
        assert runtime.framework.call("android.pm.get_public_key", [], ctx) == (
            key.public.fingerprint().hex()
        )
        digest = runtime.framework.call(
            "android.pm.get_manifest_digest", ["classes.dex"], ctx
        )
        assert digest == apk.manifest.get("classes.dex")
        assert runtime.framework.call("android.res.get_string", ["s"], ctx) == "v"
        with pytest.raises(VMCrash):
            runtime.framework.call("android.res.get_string", ["missing"], ctx)

    def test_reflection_logged(self):
        runtime = fresh_runtime("return_void")
        call_api(runtime, "android.reflect.call", ["java.str.length", "abcd"])
        assert runtime.reflection_log == ["java.str.length"]

    def test_effects_recorded(self):
        runtime = fresh_runtime("return_void")
        ctx = runtime.session(budget=1000)
        runtime.framework.call("android.log.i", ["msg"], ctx)
        runtime.framework.call("android.ui.alert", ["warn!"], ctx)
        runtime.framework.call("android.net.report", ["report"], ctx)
        assert runtime.logs == ["msg"]
        assert runtime.ui_effects == [("alert", "warn!")]
        assert runtime.reports == ["report"]


class TestDeviceModel:
    def test_population_is_diverse(self):
        population = DevicePopulation(seed=1)
        manufacturers = {population.sample().get("build.manufacturer") for _ in range(60)}
        assert len(manufacturers) >= 4

    def test_attacker_lab_is_uniform(self):
        profiles = attacker_lab_profiles(4)
        assert {p.get("build.manufacturer") for p in profiles} == {"generic"}
        assert {p.get("net.ip_d") for p in profiles} == {15}  # emulator NAT

    def test_time_variables_derive_from_clock(self):
        device = attacker_lab_profiles(1)[0]
        device.clock = 3 * 3600 + 25 * 60
        assert device.get("time.hour") == 3
        assert device.get("time.minute") == 25

    def test_unknown_env_crashes(self):
        device = attacker_lab_profiles(1)[0]
        with pytest.raises(VMCrash):
            device.get("no.such.var")

    def test_mutate_rejects_derived_time(self):
        device = attacker_lab_profiles(1)[0]
        with pytest.raises(VMCrash):
            device.mutate("time.hour", 5)

    def test_domains_sample_within_bounds(self):
        rng = random.Random(0)
        for name, domain in ENV_DOMAINS.items():
            value = domain.sample(rng)
            if isinstance(domain, IntDomain):
                assert domain.lo <= value <= domain.hi, name
            else:
                assert value in [v for v, _ in domain.choices], name

    def test_choice_probability(self):
        domain = ChoiceDomain((("a", 1.0), ("b", 3.0)))
        assert domain.probability_of(lambda v: v == "b") == pytest.approx(0.75)


class TestEvents:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Event(EventKind.TOUCH, "A", (1,))

    def test_random_args_match_arity(self):
        rng = random.Random(0)
        for kind in EventKind:
            assert len(random_args(kind, rng)) == ARITY[kind]

    def test_declared_events(self):
        dex = assemble(
            ".class A\n.method on_touch 2\nreturn_void\n.end\n"
            ".class B\n.method on_key 1\nreturn_void\n.end"
        )
        assert declared_events(dex) == [
            (EventKind.TOUCH, "A"),
            (EventKind.KEY, "B"),
        ]

    def test_dispatch_advances_clock(self):
        dex = assemble(".class A\n.method on_back 0\nreturn_void\n.end")
        runtime = Runtime(dex)
        before = runtime.device.clock
        runtime.session().dispatch(Event(EventKind.BACK, "A"))
        assert runtime.device.clock > before
