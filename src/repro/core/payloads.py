"""Payload synthesis: the encrypted half of a logic bomb.

A payload is a one-class DexFile::

    class Bomb$<id>:
        static leak = null
        run(register_array) -> register_array'

``run`` receives the caller's *live* registers (the ones the woven body
references) as an array of size ``n + 2`` (n live registers, a control
slot, a return-value slot), and:

1. unpacks the array into local registers (slot i -> local i+1);
2. evaluates the *inner trigger* (encrypted, so the attacker cannot see
   which environment is tested); when met, runs repackaging detection
   and -- on a key mismatch -- the response;
3. executes the woven original body, if any;
4. repacks the registers and returns the array; the control slot tells
   the caller to fall through (0), return a value (1) or return void (2).

The blob is serialized and AES-128-CBC encrypted under
``KDF(c | salt)``; only a runtime value of X equal to the removed
constant can reconstruct the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.config import DetectionMethod, ResponseKind
from repro.core.inner_triggers import InnerCondition
from repro.core.responses import (
    LEAK_FIELD,
    MESH_OK_FIELD,
    TRIP_COUNT_FIELD,
    ResponsePlan,
    emit_planned_response,
    emit_response,
)
from repro.core.weaving import EPILOGUE_LABEL
from repro.crypto import AES128, Salt, derive_key
from repro.dex.builder import MethodBuilder
from repro.dex.instructions import Instr
from repro.dex.model import DexClass, DexField, DexFile
from repro.dex.opcodes import Op
from repro.dex.serializer import deserialize_dex, serialize_dex
from repro.errors import InstrumentationError

#: Control-slot protocol.
CONTROL_FALLTHROUGH = 0
CONTROL_RETURN_VALUE = 1
CONTROL_RETURN_VOID = 2

#: Fixed IV for payload encryption; safe because every bomb has a
#: unique salt and therefore a unique key.
PAYLOAD_IV = b"\x00" * 16


@dataclass
class DetectionSpec:
    """What the detection code compares against."""

    method: DetectionMethod
    #: PUBLIC_KEY: the original key fingerprint (hex).
    original_key_hex: str = ""
    #: CODE_DIGEST: strings.xml key of the stego carrier + hidden length.
    stego_key: str = ""
    stego_digest_bytes: int = 8
    #: CODE_SCAN: the pinned method and its expected instruction hash.
    scan_target: str = ""
    scan_expected_hex: str = ""


@dataclass(frozen=True)
class MeshGuard:
    """One peer-integrity check emitted at the top of a payload.

    ``kind`` selects the digest the guard compares: ``"shape"`` uses
    ``bomb.shape_digest`` (bytes constants masked, so the digest is
    invariant under the mesh's own ciphertext rewrites but changes when
    a prologue branch is stripped or the method is deleted), and
    ``"content"`` uses ``bomb.method_digest`` (the full instruction
    hash, which additionally pins peer ciphertext against blanking).
    """

    peer_id: str
    peer_method: str
    expected_hex: str
    kind: str = "shape"


@dataclass
class PayloadSpec:
    """Everything needed to synthesize one payload."""

    bomb_id: str
    payload_class: str
    slots: int                       # number of live caller registers
    app_name: str
    inner: Optional[InnerCondition] = None
    detection: Optional[DetectionSpec] = None     # None => bogus bomb
    response: Optional[ResponseKind] = None
    woven_body: Sequence[Instr] = ()              # prepared by weaving.py
    null_target: Optional[str] = None
    #: Qualified static flag field for strategic muting; when set, the
    #: payload skips detection once any bomb has already detected.
    mute_flag: Optional[str] = None
    #: Total payload-local registers backing the woven body (defaults to
    #: ``slots``); liveness analysis lets region-internal temporaries
    #: live here without occupying array slots.
    local_count: Optional[int] = None
    #: Payload-local register carried by each array slot (defaults to
    #: locals 1..slots in order).
    slot_locals: Optional[Tuple[int, ...]] = None
    #: Cross-reference guards over peer bombs (repro.core.mesh); empty
    #: for unmeshed protections, which therefore serialize byte-identically
    #: to the pre-mesh pipeline.
    mesh_guards: Tuple[MeshGuard, ...] = ()
    #: Response envelope for a tripped mesh guard (CRASH when unset).
    mesh_response: Optional[ResponsePlan] = None
    #: Delay/gate envelope for the detection response; ``None`` keeps the
    #: classic immediate :func:`emit_response` path.
    response_plan: Optional[ResponsePlan] = None

    def resolved_locals(self) -> Tuple[int, Tuple[int, ...]]:
        count = self.local_count if self.local_count is not None else self.slots
        mapping = (
            self.slot_locals
            if self.slot_locals is not None
            else tuple(range(1, self.slots + 1))
        )
        if len(mapping) != self.slots:
            raise InstrumentationError("slot mapping does not match slot count")
        if any(not 1 <= local <= count for local in mapping):
            raise InstrumentationError("slot mapping outside local range")
        return count, mapping

    @property
    def entry(self) -> str:
        return f"{self.payload_class}.run"


def build_payload_dex(spec: PayloadSpec) -> DexFile:
    """Synthesize the payload DexFile for ``spec``."""
    r = spec.slots
    local_count, slot_locals = spec.resolved_locals()
    builder = MethodBuilder(spec.payload_class, "run", params=1)
    # Reserve payload-local registers 1..local_count (array-carried
    # values plus region-internal temporaries).
    for expected in range(1, local_count + 1):
        if builder.reg() != expected:
            raise InstrumentationError("payload register layout broken")

    index_reg = builder.reg()

    # -- unpack ------------------------------------------------------------
    for i, local in enumerate(slot_locals):
        builder.const(index_reg, i)
        builder.aget(local, 0, index_reg)

    # Default control: fall through.
    control_reg = builder.const_new(CONTROL_FALLTHROUGH)
    builder.const(index_reg, r)
    builder.aput(control_reg, 0, index_reg)

    # -- mesh guards -------------------------------------------------------
    # Peer-integrity checks run before the inner trigger: tampering with
    # a peer bomb is proof of manipulation regardless of which device or
    # environment this copy runs on.  Tampering is static, so a payload
    # that once saw its whole mesh intact records that in a class static
    # and skips re-verification -- keeping steady-state guard cost (and
    # the Table 5 overhead delta) near zero.  A tripped run never sets
    # the flag: delayed/gated responses keep counting trips.
    if spec.mesh_guards:
        verified = builder.reg()
        builder.sget(verified, f"{spec.payload_class}.{MESH_OK_FIELD}")
        guards_done = builder.fresh_label("mesh_done")
        builder.if_nez(verified, guards_done)
        clean_reg = builder.const_new(1)
        guard_api = {"shape": "bomb.shape_digest", "content": "bomb.method_digest"}
        for guard in spec.mesh_guards:
            target = builder.const_new(guard.peer_method)
            current = builder.reg()
            builder.invoke(current, guard_api[guard.kind], (target,))
            expected = builder.const_new(guard.expected_hex)
            intact = builder.reg()
            builder.invoke(intact, "java.str.equals", (current, expected))
            ok = builder.fresh_label("mesh_ok")
            builder.if_nez(intact, ok)
            builder.const(clean_reg, 0)
            id_reg = builder.const_new(spec.bomb_id)
            trip_reg = builder.const_new("mesh_tripped")
            builder.invoke(None, "bomb.mark", (id_reg, trip_reg))
            emit_planned_response(
                builder,
                spec.mesh_response or ResponsePlan(kind=ResponseKind.CRASH),
                spec.bomb_id,
                spec.payload_class,
                spec.app_name,
                null_target=spec.null_target,
            )
            builder.label(ok)
        builder.if_eqz(clean_reg, guards_done)
        builder.sput(clean_reg, f"{spec.payload_class}.{MESH_OK_FIELD}")
        builder.label(guards_done)

    # -- inner trigger + detection -----------------------------------------
    if spec.detection is not None:
        skip_detect = builder.fresh_label("skip_detect")
        if spec.mute_flag is not None:
            # Strategic muting: stay quiet if another bomb already spoke.
            muted = builder.reg()
            builder.sget(muted, spec.mute_flag)
            builder.if_nez(muted, skip_detect)
        if spec.inner is not None:
            condition_reg = spec.inner.emit(builder)
            builder.if_eqz(condition_reg, skip_detect)
        id_reg = builder.const_new(spec.bomb_id)
        met_reg = builder.const_new("inner_met")
        builder.invoke(None, "bomb.mark", (id_reg, met_reg))
        _emit_detection(builder, spec)
        builder.label(skip_detect)

    # -- woven body -----------------------------------------------------------
    for instr in spec.woven_body:
        if instr.op is Op.RETURN:
            _emit_exit(builder, index_reg, r, CONTROL_RETURN_VALUE, value_reg=instr.a)
        elif instr.op is Op.RETURN_VOID:
            _emit_exit(builder, index_reg, r, CONTROL_RETURN_VOID)
        else:
            builder.emit(instr)

    # -- epilogue ---------------------------------------------------------------
    builder.label(EPILOGUE_LABEL)
    for i, local in enumerate(slot_locals):
        builder.const(index_reg, i)
        builder.aput(local, 0, index_reg)
    builder.ret(0)

    method = builder.build()
    cls = DexClass(name=spec.payload_class)
    cls.add_field(DexField(name=LEAK_FIELD, static=True, initial=None))
    if spec.mesh_guards:
        cls.add_field(DexField(name=MESH_OK_FIELD, static=True, initial=0))
    if _needs_trip_counter(spec):
        cls.add_field(DexField(name=TRIP_COUNT_FIELD, static=True, initial=0))
    cls.add_method(method)
    dex = DexFile()
    dex.add_class(cls)
    dex.validate()
    return dex


def _needs_trip_counter(spec: PayloadSpec) -> bool:
    """Whether any emitted response plan reads the delay counter.

    The static field is declared only when some plan is delayed, so
    unmeshed payloads keep their exact pre-mesh serialization.
    """
    plans = [spec.response_plan]
    if spec.mesh_guards:
        plans.append(spec.mesh_response or ResponsePlan(kind=ResponseKind.CRASH))
    return any(plan is not None and plan.delay_marks > 0 for plan in plans)


def _emit_exit(
    builder: MethodBuilder, index_reg: int, r: int, control: int, value_reg: int = None
) -> None:
    """Rewrite a woven RETURN: store control (and value), jump to epilogue."""
    control_const = builder.const_new(control)
    builder.const(index_reg, r)
    builder.aput(control_const, 0, index_reg)
    if value_reg is not None:
        builder.const(index_reg, r + 1)
        builder.aput(value_reg, 0, index_reg)
    builder.goto(EPILOGUE_LABEL)


def _emit_detection(builder: MethodBuilder, spec: PayloadSpec) -> None:
    """Repackaging check for the configured method; response on mismatch."""
    detection = spec.detection
    match_reg = builder.reg()

    if detection.method is DetectionMethod.PUBLIC_KEY:
        current = builder.reg()
        builder.invoke(current, "android.pm.get_public_key", ())
        original = builder.const_new(detection.original_key_hex)
        builder.invoke(match_reg, "java.str.equals", (current, original))
    elif detection.method is DetectionMethod.CODE_DIGEST:
        carrier = builder.reg()
        key = builder.const_new(detection.stego_key)
        builder.invoke(carrier, "android.res.get_string", (key,))
        hidden = builder.reg()
        length = builder.const_new(detection.stego_digest_bytes)
        builder.invoke(hidden, "bomb.stego_extract", (carrier, length))
        current = builder.reg()
        entry = builder.const_new("classes.dex")
        builder.invoke(current, "android.pm.get_manifest_digest", (entry,))
        builder.invoke(match_reg, "java.str.starts_with", (current, hidden))
    elif detection.method is DetectionMethod.CODE_SCAN:
        current = builder.reg()
        target = builder.const_new(detection.scan_target)
        builder.invoke(current, "android.pm.get_method_hash", (target,))
        expected = builder.const_new(detection.scan_expected_hex)
        builder.invoke(match_reg, "java.str.equals", (current, expected))
    else:
        raise InstrumentationError(f"unhandled detection method {detection.method!r}")

    genuine = builder.fresh_label("genuine")
    builder.if_nez(match_reg, genuine)
    id_reg = builder.const_new(spec.bomb_id)
    detected_reg = builder.const_new("detected")
    builder.invoke(None, "bomb.mark", (id_reg, detected_reg))
    if spec.mute_flag is not None:
        flag_reg = builder.const_new(True)
        builder.sput(flag_reg, spec.mute_flag)
    if spec.response_plan is not None:
        emit_planned_response(
            builder,
            spec.response_plan,
            spec.bomb_id,
            spec.payload_class,
            spec.app_name,
            null_target=spec.null_target,
        )
    else:
        emit_response(
            builder,
            spec.response or ResponseKind.CRASH,
            spec.bomb_id,
            spec.payload_class,
            spec.app_name,
            null_target=spec.null_target,
        )
    builder.label(genuine)


def encrypt_payload(dex: DexFile, constant, salt: Salt) -> bytes:
    """Serialize and encrypt a payload under ``KDF(constant | salt)``."""
    key = derive_key(constant, salt)
    return AES128(key).encrypt_cbc(serialize_dex(dex), PAYLOAD_IV)


def decrypt_payload(ciphertext: bytes, constant, salt: Salt) -> DexFile:
    """Inverse of :func:`encrypt_payload`, for tooling and tests.

    At runtime the VM decrypts through the ``bomb.decrypt`` framework
    call so failures hit the containment boundary; this helper raises
    the raw taxonomy instead (``BadPaddingError``/``CryptoError`` under
    a wrong key, ``DexFormatError`` for a corrupt blob).
    """
    key = derive_key(constant, salt)
    return deserialize_dex(AES128(key).decrypt_cbc(ciphertext, PAYLOAD_IV))
