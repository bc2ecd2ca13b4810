"""Containment boundary: payload failures degrade, never crash the host."""

import pytest

from repro.apk import Resources, build_apk
from repro.chaos import FaultPlan, active_plan
from repro.core import BombDroid, BombDroidConfig
from repro.core.payloads import (
    CONTROL_FALLTHROUGH,
    PayloadSpec,
    build_payload_dex,
    decrypt_payload,
    encrypt_payload,
)
from repro.corpus import build_app
from repro.crypto import AES128, RSAKeyPair, Salt, derive_key
from repro.dex import assemble, instructions as ins
from repro.dex.serializer import serialize_dex
from repro.errors import (
    BadPaddingError,
    CryptoError,
    DexFormatError,
    PayloadError,
    ReproError,
    VMCrash,
)
from repro.fuzzing.generators import DynodroidGenerator
from repro.vm import CircuitBreaker, ContainmentPolicy, Runtime, fall_through
from repro.vm.containment import CONTROL_FALLTHROUGH as VM_CONTROL_FALLTHROUGH


APP_SOURCE = ".class A\n.field anchor static 5\n.method on_key 1\nreturn_void\n.end"
BUDGET = 1_000_000


def installed_runtime(containment=None):
    dex = assemble(APP_SOURCE)
    key = RSAKeyPair.generate(seed=2)
    apk = build_apk(dex, Resources(strings={"app_name": "A"}), key)
    return Runtime(
        apk.dex(), package=apk.install_view(), seed=0, containment=containment
    )


def payload_blob(bomb_id="b1", slots=1):
    spec = PayloadSpec(
        bomb_id=bomb_id, payload_class=f"Bomb${bomb_id}", slots=slots, app_name="A"
    )
    return serialize_dex(build_payload_dex(spec)), spec.entry


class TestPolicyPrimitives:
    def test_breaker_trips_after_threshold(self):
        breaker = CircuitBreaker(threshold=3)
        assert not breaker.failure("b")
        assert not breaker.failure("b")
        assert breaker.failure("b")          # third failure trips
        assert breaker.is_quarantined("b")
        assert not breaker.failure("b")      # already quarantined: no re-trip

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.failure("b")
        breaker.success("b")
        assert breaker.consecutive_failures("b") == 0
        assert not breaker.failure("b")
        assert not breaker.is_quarantined("b")

    def test_fall_through_sets_control_slot(self):
        assert VM_CONTROL_FALLTHROUGH == CONTROL_FALLTHROUGH
        array = [7, 99, 42]
        assert fall_through(array) is array
        assert array == [7, CONTROL_FALLTHROUGH, 42]


class TestDecryptContainment:
    def _wrong_key_ciphertext(self):
        spec = PayloadSpec(
            bomb_id="b1", payload_class="Bomb$b1", slots=0, app_name="A"
        )
        salt = Salt.from_seed(9)
        ciphertext = encrypt_payload(build_payload_dex(spec), 42, salt)
        return ciphertext, bytes(derive_key(43, salt))

    def test_legacy_wrong_key_still_crashes(self):
        runtime = installed_runtime()
        ciphertext, wrong_key = self._wrong_key_ciphertext()
        with pytest.raises(VMCrash) as info:
            runtime.framework.call(
                "bomb.decrypt", [ciphertext, wrong_key, "b1"], runtime.session(budget=BUDGET)
            )
        assert info.value.site == "crypto.aes.decrypt"
        assert info.value.bomb_id == "b1"

    def test_contained_wrong_key_returns_sentinel(self):
        runtime = installed_runtime(ContainmentPolicy())
        ciphertext, wrong_key = self._wrong_key_ciphertext()
        blob = runtime.framework.call(
            "bomb.decrypt", [ciphertext, wrong_key, "b1"], runtime.session(budget=BUDGET)
        )
        assert blob == b""
        assert runtime.bombs.counts["b1"]["payload_error"] == 1
        # The sentinel makes load_run fall through without touching state.
        array = [5, None, None]
        result = runtime.framework.call(
            "bomb.load_run", [b"", "Bomb$b1.run", array, "b1"], runtime.session(budget=BUDGET)
        )
        assert result == [5, CONTROL_FALLTHROUGH, None]

    def test_strict_policy_reraises_payload_error(self):
        runtime = installed_runtime(ContainmentPolicy(strict=True))
        ciphertext, wrong_key = self._wrong_key_ciphertext()
        with pytest.raises(PayloadError) as info:
            runtime.framework.call(
                "bomb.decrypt", [ciphertext, wrong_key, "b1"], runtime.session(budget=BUDGET)
            )
        assert info.value.bomb_id == "b1"
        assert info.value.site == "crypto.aes.decrypt"
        assert runtime.bombs.counts["b1"]["payload_error"] == 1


class TestLoadRunContainment:
    def test_garbage_that_decrypts_fine_is_contained(self):
        # A blob that decrypted cleanly (padding valid) but is not a dex.
        runtime = installed_runtime(ContainmentPolicy())
        array = [1, 2, None, None]
        result = runtime.framework.call(
            "bomb.load_run", [b"\x00" * 32, "Bomb$x.run", array, "bx"],
            runtime.session(budget=BUDGET),
        )
        assert result == [1, 2, CONTROL_FALLTHROUGH, None]
        assert runtime.bombs.counts["bx"]["payload_error"] == 1

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[: len(blob) // 2],                      # truncated
        lambda blob: blob[:10] + bytes([blob[10] ^ 0x10]) + blob[11:],  # bit flip
    ])
    def test_corrupt_blob_contained(self, corrupt):
        runtime = installed_runtime(ContainmentPolicy())
        blob, entry = payload_blob()
        array = [3, None, None]
        result = runtime.framework.call(
            "bomb.load_run", [corrupt(blob), entry, array, "b1"], runtime.session(budget=BUDGET)
        )
        assert result[-2] == CONTROL_FALLTHROUGH
        assert result[0] == 3
        assert runtime.bombs.counts["b1"]["payload_error"] == 1

    def test_classload_failure_contained(self):
        runtime = installed_runtime(ContainmentPolicy())
        blob, _ = payload_blob()
        array = [3, None, None]
        result = runtime.framework.call(
            "bomb.load_run", [blob, "Bomb$b1.no_such", array, "b1"], runtime.session(budget=BUDGET)
        )
        assert result[-2] == CONTROL_FALLTHROUGH
        assert runtime.bombs.counts["b1"]["payload_error"] == 1

    def test_budget_exhaustion_inside_payload_contained(self):
        runtime = installed_runtime(
            ContainmentPolicy(payload_budget=4)   # fewer than the unpack loop
        )
        blob, entry = payload_blob()
        ctx = runtime.session(budget=BUDGET)
        array = [3, None, None]
        result = runtime.framework.call(
            "bomb.load_run", [blob, entry, array, "b1"], ctx
        )
        assert result[-2] == CONTROL_FALLTHROUGH
        assert runtime.bombs.counts["b1"]["payload_error"] == 1
        # The payload sub-budget capped the damage to the host's budget.
        assert BUDGET - ctx.remaining <= 10

    def test_quarantine_after_consecutive_failures(self):
        runtime = installed_runtime(ContainmentPolicy(max_consecutive_failures=2))
        array = [None, None]
        for _ in range(2):
            runtime.framework.call(
                "bomb.load_run", [b"junk", "Bomb$q.run", array, "bq"],
                runtime.session(budget=BUDGET),
            )
        counts = runtime.bombs.counts["bq"]
        assert counts["payload_error"] == 2
        assert counts["quarantined"] == 1
        # Quarantined: the payload is skipped entirely from now on.
        blob, entry = payload_blob(bomb_id="bq")
        result = runtime.framework.call(
            "bomb.load_run", [blob, entry, [1, None, None], "bq"], runtime.session(budget=BUDGET)
        )
        assert result[-2] == CONTROL_FALLTHROUGH
        # Only the two failing runs recorded payload_run; the skipped
        # firing never reached the payload.
        assert runtime.bombs.counts["bq"]["payload_run"] == 2

    def test_success_resets_the_breaker(self):
        runtime = installed_runtime(ContainmentPolicy(max_consecutive_failures=2))
        blob, entry = payload_blob()
        runtime.framework.call(
            "bomb.load_run", [b"junk", "Bomb$b1.run", [None, None], "b1"],
            runtime.session(budget=BUDGET),
        )
        runtime.framework.call(
            "bomb.load_run", [blob, entry, [1, None, None], "b1"], runtime.session(budget=BUDGET)
        )
        assert runtime.breaker.consecutive_failures("b1") == 0
        assert not runtime.breaker.is_quarantined("b1")

    def test_fault_injected_inside_payload_is_contained(self):
        runtime = installed_runtime(ContainmentPolicy())
        blob, entry = payload_blob()
        plan = FaultPlan(seed=1).arm("vm.classload", "raise")
        with active_plan(plan):
            result = runtime.framework.call(
                "bomb.load_run", [blob, entry, [9, None, None], "b1"],
                runtime.session(budget=BUDGET),
            )
        assert result == [9, CONTROL_FALLTHROUGH, None]
        assert runtime.bombs.counts["b1"]["payload_error"] == 1

    def test_kdf_fault_degrades_to_decrypt_failure(self):
        runtime = installed_runtime(ContainmentPolicy())
        salt = Salt.from_seed(3)
        plan = FaultPlan(seed=1).arm("crypto.kdf.derive", "raise")
        with active_plan(plan):
            key = runtime.framework.call(
                "bomb.derive", [42, salt.value.hex()], runtime.session(budget=BUDGET)
            )
        assert key == b"\x00" * 16
        spec = PayloadSpec(
            bomb_id="bk", payload_class="Bomb$bk", slots=0, app_name="A"
        )
        ciphertext = encrypt_payload(build_payload_dex(spec), 42, salt)
        blob = runtime.framework.call(
            "bomb.decrypt", [ciphertext, key, "bk"], runtime.session(budget=BUDGET)
        )
        assert blob == b""
        assert runtime.bombs.counts["bk"]["payload_error"] == 1


class TestPartialLoadAndCollisions:
    def test_failed_load_leaves_no_trace(self):
        runtime = installed_runtime()
        blob, _ = payload_blob()
        with pytest.raises(VMCrash) as info:
            runtime.load_blob_method(blob, "Bomb$b1.no_such", bomb_id="b1")
        assert info.value.site == "vm.classload"
        assert info.value.bomb_id == "b1"
        # Nothing was cached or registered: methods, statics, blob cache.
        assert runtime.find_method("Bomb$b1.run") is None
        assert "Bomb$b1.leak" not in runtime.statics
        assert not runtime._blob_cache

    def test_payload_cannot_shadow_app_method(self):
        runtime = installed_runtime()
        impostor = serialize_dex(
            assemble(".class A\n.method on_key 1\nreturn_void\n.end")
        )
        with pytest.raises(VMCrash, match="redefines"):
            runtime.load_blob_method(impostor, "A.on_key")
        # The app's original method is untouched.
        assert runtime.find_method("A.on_key") is not None

    def test_shadowing_payload_contained_at_boundary(self):
        runtime = installed_runtime(ContainmentPolicy())
        impostor = serialize_dex(
            assemble(".class A\n.method on_key 1\nreturn_void\n.end")
        )
        result = runtime.framework.call(
            "bomb.load_run", [impostor, "A.on_key", [None, None], "bs"],
            runtime.session(budget=BUDGET),
        )
        assert result[-2] == CONTROL_FALLTHROUGH
        assert runtime.bombs.counts["bs"]["payload_error"] == 1

    def test_reloading_same_dex_object_is_not_a_collision(self):
        runtime = installed_runtime()
        blob, entry = payload_blob()
        first = runtime.load_blob_method(blob, entry)
        assert runtime.load_blob_method(blob, entry) is first


class TestDeliberateResponsesPropagate:
    def _pirated_runtime(self, containment):
        from repro.core.config import DetectionMethod, ResponseKind
        from repro.core.payloads import DetectionSpec

        runtime = installed_runtime(containment)
        spec = PayloadSpec(
            bomb_id="br", payload_class="Bomb$br", slots=0, app_name="A",
            detection=DetectionSpec(
                method=DetectionMethod.PUBLIC_KEY, original_key_hex="ff" * 20
            ),
            response=ResponseKind.CRASH,
        )
        return runtime, serialize_dex(build_payload_dex(spec)), spec.entry

    def test_crash_response_not_contained(self):
        runtime, blob, entry = self._pirated_runtime(ContainmentPolicy())
        with pytest.raises(VMCrash, match="repackaging response"):
            runtime.framework.call(
                "bomb.load_run", [blob, entry, [None, None], "br"], runtime.session(budget=BUDGET)
            )
        assert runtime.bombs.counts["br"]["responded"] == 1
        assert "payload_error" not in runtime.bombs.counts["br"]


class TestMeshTrippedResponses:
    """Mesh guards are deliberate tamper responses: the responded-delta
    check lets them propagate, and the breaker never quarantines a bomb
    for defending the mesh."""

    def _meshed_blob(self, plan=None):
        from repro.core.config import ResponseKind
        from repro.core.payloads import MeshGuard
        from repro.core.responses import ResponsePlan

        # The guard pins a method that does not exist: bomb.shape_digest
        # returns "" for it, the compare fails, the guard trips -- the
        # same path a deleted peer bomb takes.
        spec = PayloadSpec(
            bomb_id="bm", payload_class="Bomb$bm", slots=0, app_name="A",
            mesh_guards=(
                MeshGuard(
                    peer_id="bp",
                    peer_method="A.deleted_peer",
                    expected_hex="cc" * 20,
                    kind="shape",
                ),
            ),
            mesh_response=plan or ResponsePlan(kind=ResponseKind.CRASH),
        )
        return serialize_dex(build_payload_dex(spec)), spec.entry

    def test_mesh_trip_propagates_through_containment(self):
        runtime = installed_runtime(ContainmentPolicy())
        blob, entry = self._meshed_blob()
        with pytest.raises(VMCrash, match="repackaging response"):
            runtime.framework.call(
                "bomb.load_run", [blob, entry, [None, None], "bm"], runtime.session(budget=BUDGET)
            )
        counts = runtime.bombs.counts["bm"]
        assert counts["mesh_tripped"] == 1
        assert counts["responded"] == 1
        # Deliberate, not a fault: no payload_error, no breaker damage.
        assert "payload_error" not in counts
        assert not runtime.breaker.is_quarantined("bm")
        assert runtime.breaker.consecutive_failures("bm") == 0

    def test_repeated_trips_never_quarantine(self):
        runtime = installed_runtime(
            ContainmentPolicy(max_consecutive_failures=2)
        )
        blob, entry = self._meshed_blob()
        for _ in range(4):
            with pytest.raises(VMCrash):
                runtime.framework.call(
                    "bomb.load_run", [blob, entry, [None, None], "bm"],
                    runtime.session(budget=BUDGET),
                )
        counts = runtime.bombs.counts["bm"]
        assert counts["mesh_tripped"] == 4
        assert counts["responded"] == 4
        assert "quarantined" not in counts
        assert not runtime.breaker.is_quarantined("bm")

    def test_delayed_mesh_response_counts_trips_first(self):
        from repro.core.config import ResponseKind
        from repro.core.responses import ResponsePlan

        runtime = installed_runtime(ContainmentPolicy())
        blob, entry = self._meshed_blob(
            ResponsePlan(kind=ResponseKind.CRASH, delay_marks=2)
        )
        # First trip only increments the counter: no response yet, and
        # the clean completion must not look like a payload fault.
        result = runtime.framework.call(
            "bomb.load_run", [blob, entry, [None, None], "bm"], runtime.session(budget=BUDGET)
        )
        assert result[-2] == CONTROL_FALLTHROUGH
        counts = runtime.bombs.counts["bm"]
        assert counts["mesh_tripped"] == 1
        assert "responded" not in counts
        assert "payload_error" not in counts
        # Second trip reaches the mark threshold and fires.
        with pytest.raises(VMCrash, match="repackaging response"):
            runtime.framework.call(
                "bomb.load_run", [blob, entry, [None, None], "bm"], runtime.session(budget=BUDGET)
            )
        counts = runtime.bombs.counts["bm"]
        assert counts["mesh_tripped"] == 2
        assert counts["responded"] == 1
        assert not runtime.breaker.is_quarantined("bm")

    def test_env_gated_response_holds_fire_off_cohort(self):
        from repro.core.config import ResponseKind
        from repro.core.responses import ResponsePlan

        runtime = installed_runtime(ContainmentPolicy())
        value = runtime.framework.call(
            "android.env.get", ["build.serial_low"], runtime.session(budget=BUDGET)
        )
        off_cohort = (value % 2) ^ 1
        blob, entry = self._meshed_blob(
            ResponsePlan(
                kind=ResponseKind.CRASH,
                gate_env="build.serial_low",
                gate_modulus=2,
                gate_residue=off_cohort,
            )
        )
        result = runtime.framework.call(
            "bomb.load_run", [blob, entry, [None, None], "bm"], runtime.session(budget=BUDGET)
        )
        assert result[-2] == CONTROL_FALLTHROUGH
        counts = runtime.bombs.counts["bm"]
        # The trip is recorded for telemetry, but this device's identity
        # is outside the response cohort: silent, clean, unquarantined.
        assert counts["mesh_tripped"] == 1
        assert "responded" not in counts
        assert "payload_error" not in counts
        assert not runtime.breaker.is_quarantined("bm")


class TestTransparencyEndToEnd:
    def test_contained_faults_keep_host_output_identical(self):
        # Payload-only bombs (weave off): fall-through IS the original
        # branch semantics, so even with every decrypt failing the host
        # app must behave exactly like the unprotected build.
        bundle = build_app("Containment", seed=5, scale=0.3)
        config = BombDroidConfig(seed=5, profiling_events=300, weave=False)
        protected, report = BombDroid(config).protect(
            bundle.apk, bundle.developer_key
        )
        events = list(DynodroidGenerator(bundle.dex, seed=5).stream(400))

        def play(apk, containment=None, plan=None):
            runtime = Runtime(
                apk.dex(), package=apk.install_view(), seed=0,
                containment=containment,
            )
            def drive():
                runtime.boot()
                for event in events:
                    runtime.dispatch(event)
            if plan is not None:
                with active_plan(plan):
                    drive()
            else:
                drive()
            return runtime

        baseline = play(bundle.apk)
        plan = FaultPlan(seed=5).arm("crypto.aes.decrypt", "raise")
        chaotic = play(protected, containment=ContainmentPolicy(), plan=plan)

        assert chaotic.logs == baseline.logs
        assert chaotic.ui_effects == baseline.ui_effects
        assert not chaotic.detections
        if plan.fires():
            assert chaotic.bombs.count("payload_error") > 0


class TestDecryptPayloadHelper:
    def test_roundtrip_and_taxonomy(self):
        spec = PayloadSpec(
            bomb_id="bh", payload_class="Bomb$bh", slots=0, app_name="A"
        )
        dex = build_payload_dex(spec)
        salt = Salt.from_seed(4)
        ciphertext = encrypt_payload(dex, "c", salt)
        assert serialize_dex(decrypt_payload(ciphertext, "c", salt)) == (
            serialize_dex(dex)
        )
        with pytest.raises((BadPaddingError, CryptoError, DexFormatError)):
            decrypt_payload(ciphertext, "wrong", salt)
