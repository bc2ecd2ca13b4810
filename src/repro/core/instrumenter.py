"""Site transformation: rewriting qualified conditions into logic bombs.

This module owns the bytecode surgery.  For every bomb the injected
*outer* shape is identical (Listing 3 of the paper)::

    rH   = bomb.hash(X, salt, id)          # Hash(X | salt)
    if  !str.equals(rH, Hc):  goto <no-match continuation>
    rK   = bomb.derive(X, salt)            # key only exists when X == c
    blob = bomb.decrypt(CT, rK, id)        # wrong key -> crash
    arr  = pack(<live registers of the woven body>)
    res  = bomb.load_run(blob, "Bomb$id.run", arr, id)
    unpack(res); dispatch on control slot  # fall through / return

Shapes handled:

* **weavable equality-falls-through** (``if_ne X,c,@skip`` and the
  string-equals + ``if_eqz`` pattern): branch *and body* are removed;
  the body travels inside the encrypted payload (code weaving);
* **equality-jumps** (``if_eq``, boolean tests): payload-only bomb, the
  original body stays at its label;
* **switch cases**: the matched key is removed from the table and the
  bomb routes control to the case label (optionally weaving the case
  body when only the switch references it);
* **artificial QCs**: a fresh ``sget field; <bomb>`` block inserted at a
  safe location.

The constant ``c`` is erased from the method (the defining CONST turns
into NOP) whenever no other instruction reads it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.liveness import live_registers_for_region
from repro.analysis.qualified_conditions import QCKind, QualifiedCondition
from repro.analysis.regions import BodyRegion
from repro.core.config import BombDroidConfig, DetectionMethod, ResponseKind
from repro.core.inner_triggers import InnerCondition, ProbedCondition
from repro.core.mesh import (
    MeshPlanner,
    PendingSite,
    PrologueMorph,
    PrologueShape,
    decoy_hex_for,
)
from repro.core.payloads import (
    DetectionSpec,
    PayloadSpec,
    build_payload_dex,
    encrypt_payload,
)
from repro.core.stats import Bomb, BombOrigin
from repro.core.weaving import prepare_woven_body, referenced_registers
from repro.crypto import Salt, hash_constant
from repro.dex import instructions as ins
from repro.dex.instructions import Instr, Label
from repro.dex.model import DexFile, DexMethod
from repro.dex.opcodes import Op
from repro.errors import InstrumentationError


class MethodEditor:
    """Splice-based editing of one method with fresh labels/registers.

    ``label_ns`` namespaces generated labels (the bomb id in practice)
    so labels are unique within a method *and* deterministic: a
    process-global counter here would make repeated ``protect()`` calls
    emit different bytecode for the same input, defeating byte-identical
    caching and parallel/serial parity.
    """

    def __init__(self, method: DexMethod, label_ns: str = "bd") -> None:
        self.method = method
        self._label_ns = label_ns
        self._label_counter = 0

    def reg(self) -> int:
        return self.method.grow_registers(1)

    def regs(self, count: int) -> List[int]:
        return [self.reg() for _ in range(count)]

    def fresh_label(self, hint: str = "bd") -> str:
        self._label_counter += 1
        return f"__{self._label_ns}_{hint}_{self._label_counter}"

    def splice(self, start: int, end: int, replacement: Sequence[Instr]) -> None:
        """Replace instructions ``[start, end)`` with ``replacement``."""
        if not 0 <= start <= end <= len(self.method.instructions):
            raise InstrumentationError(f"bad splice range [{start}, {end})")
        self.method.instructions[start:end] = list(replacement)
        self.method.invalidate()

    def insert(self, pc: int, block: Sequence[Instr]) -> None:
        self.splice(pc, pc, block)

    def nop(self, pc: int) -> None:
        self.splice(pc, pc + 1, [Instr(Op.NOP)])


@dataclass
class PayloadBuild:
    """Everything `_make_payload` produced for one bomb."""

    spec: PayloadSpec
    ciphertext: bytes
    detection: Optional[DetectionMethod]
    response: Optional[ResponseKind]
    inner: Optional[object]          # InnerCondition or ProbedCondition


@dataclass
class BombMaterials:
    """The cryptographic identity of one bomb."""

    bomb_id: str
    salt: Salt
    hc_hex: str
    payload_class: str

    @property
    def salt_hex(self) -> str:
        return self.salt.value.hex()

    @property
    def entry(self) -> str:
        return f"{self.payload_class}.run"


class Instrumenter:
    """Performs all bomb insertions for one app."""

    def __init__(
        self,
        dex: DexFile,
        config: BombDroidConfig,
        rng: random.Random,
        app_name: str,
        original_key_hex: str,
        scan_targets: Sequence[Tuple[str, str]] = (),
        app_static_fields: Sequence[str] = (),
        mute_flag: Optional[str] = None,
        mesh_planner: Optional[MeshPlanner] = None,
    ) -> None:
        self._dex = dex
        self._config = config
        self._rng = rng
        self._app_name = app_name
        self._original_key_hex = original_key_hex
        #: (method name, expected hash) candidates for code-scan bombs.
        self._scan_targets = list(scan_targets)
        self._app_static_fields = list(app_static_fields)
        self._mute_flag = mute_flag
        self._counter = itertools.count(1)
        self._detection_cycle = itertools.cycle(config.detection_methods)
        self._response_cycle = itertools.cycle(config.responses)
        #: Mesh runs only: morph/probe/plan source plus the sites the
        #: second weaving pass will revisit.  ``None`` keeps the rng
        #: stream and emitted bytes identical to the pre-mesh pipeline.
        self._mesh = mesh_planner
        self.pending_sites: List[PendingSite] = []

    # ------------------------------------------------------------------
    # materials
    # ------------------------------------------------------------------

    def _materials(self, constant) -> BombMaterials:
        index = next(self._counter)
        bomb_id = f"b{index:03d}"
        salt = Salt.from_seed(self._rng.getrandbits(60))
        return BombMaterials(
            bomb_id=bomb_id,
            salt=salt,
            hc_hex=hash_constant(constant, salt).hex(),
            payload_class=f"Bomb${bomb_id}",
        )

    @staticmethod
    def _region_packing(method, start: int, end: int, body):
        """(all_referenced, packed, reg_map, slot_locals) for a region.

        ``packed`` is the subset of referenced registers that must
        travel through the array (live-in values and live-out defs per
        :func:`live_registers_for_region`); the rest are payload-local
        temporaries.  Falls back to packing everything if the liveness
        computation fails.
        """
        from repro.core.weaving import referenced_registers

        referenced = sorted(referenced_registers(body))
        try:
            packed = sorted(live_registers_for_region(method, start, end))
        except Exception:
            packed = list(referenced)
        packed = [reg for reg in packed if reg in set(referenced)] or []
        reg_map = {reg: 1 + i for i, reg in enumerate(referenced)}
        slot_locals = tuple(reg_map[reg] for reg in packed)
        return referenced, packed, reg_map, slot_locals

    def _make_payload(
        self,
        materials: BombMaterials,
        constant,
        slots: int,
        woven_body: Sequence[Instr],
        real: bool,
        inner: Optional[InnerCondition],
        local_count: Optional[int] = None,
        slot_locals: Optional[Tuple[int, ...]] = None,
    ) -> PayloadBuild:
        """Build, serialize and encrypt the payload."""
        detection_spec = None
        detection = response = None
        null_target = None
        response_plan = None
        if real:
            detection = next(self._detection_cycle)
            response = next(self._response_cycle)
            detection_spec = self._detection_spec(detection)
            if detection_spec is None:
                # Fall back to public-key comparison when e.g. no scan
                # target is available.
                detection = DetectionMethod.PUBLIC_KEY
                detection_spec = self._detection_spec(detection)
            if response is ResponseKind.NULL_STATIC:
                if self._app_static_fields:
                    null_target = self._rng.choice(sorted(self._app_static_fields))
                else:
                    response = ResponseKind.CRASH
            if self._mesh is not None:
                # Mesh: delayed/probabilistic detection response plus
                # anti-analysis probes OR-ed into the inner trigger.
                response_plan = self._mesh.plan_response(response)
                probes = self._mesh.choose_probes()
                if probes:
                    inner = ProbedCondition(inner, probes)
        spec = PayloadSpec(
            bomb_id=materials.bomb_id,
            payload_class=materials.payload_class,
            slots=slots,
            app_name=self._app_name,
            inner=inner if real else None,
            detection=detection_spec,
            response=response,
            woven_body=woven_body,
            null_target=null_target,
            mute_flag=self._mute_flag if real else None,
            local_count=local_count,
            slot_locals=slot_locals,
            response_plan=response_plan,
        )
        ciphertext = encrypt_payload(build_payload_dex(spec), constant, materials.salt)
        return PayloadBuild(
            spec=spec,
            ciphertext=ciphertext,
            detection=detection,
            response=response,
            inner=inner if real else None,
        )

    def _detection_spec(self, method: DetectionMethod) -> Optional[DetectionSpec]:
        if method is DetectionMethod.PUBLIC_KEY:
            return DetectionSpec(
                method=method, original_key_hex=self._original_key_hex
            )
        if method is DetectionMethod.CODE_DIGEST:
            return DetectionSpec(
                method=method,
                stego_key=self._config.stego_key,
                stego_digest_bytes=self._config.stego_digest_bytes,
            )
        if method is DetectionMethod.CODE_SCAN:
            if not self._scan_targets:
                return None
            target, expected = self._rng.choice(self._scan_targets)
            return DetectionSpec(
                method=method, scan_target=target, scan_expected_hex=expected
            )
        raise InstrumentationError(f"unhandled detection method {method!r}")

    # ------------------------------------------------------------------
    # the shared outer shape
    # ------------------------------------------------------------------

    def _invoke_name(self, name: str, morph: Optional[PrologueMorph]) -> str:
        """Canonical framework symbol, or the per-app alias for aliased
        morphs (resolved back by the runtime through the alias key the
        protector ships in strings.xml)."""
        if morph is not None and morph.use_alias and self._mesh is not None:
            return self._mesh.alias_of(name)
        return name

    def _emit_invocation(
        self,
        editor: MethodEditor,
        var_reg: int,
        materials: BombMaterials,
        ciphertext: bytes,
        live_regs: Sequence[int],
        no_match_label: str,
        match_exit_label: str,
        morph: Optional[PrologueMorph] = None,
    ) -> List[Instr]:
        """The outer-trigger prologue as an instruction list.

        ``live_regs`` are the caller registers travelling through the
        payload array, in slot order.  ``no_match_label`` is where
        control goes when the hash check fails; ``match_exit_label``
        where it resumes after a payload run that requested
        fall-through.

        With no ``morph`` this is exactly the Listing-3 shape; mesh
        runs draw per-bomb variants from the shape library (all
        semantically identical: the payload runs iff
        ``Hash(X|salt) == Hc``).  Only the head varies -- the hash
        invoke's argument order and the decrypt/dispatch tail stay
        canonical so the verifier and linter reason about one protocol.
        """
        r = len(live_regs)
        (
            r_salt, r_id, r_hash, r_hc, r_eq, r_key, r_ct, r_blob,
            r_len, r_arr, r_idx, r_entry, r_res, r_ctl, r_one, r_rv,
        ) = editor.regs(16)
        call = lambda name: self._invoke_name(name, morph)  # noqa: E731
        shape = morph.shape if morph is not None else PrologueShape.CLASSIC

        if shape is PrologueShape.SWAPPED:
            # Operand-order swap: id const first, equals args reversed.
            head = [
                ins.const(r_id, materials.bomb_id),
                ins.const(r_salt, materials.salt_hex),
                ins.invoke(r_hash, call("bomb.hash"), (var_reg, r_salt, r_id)),
                ins.const(r_hc, materials.hc_hex),
                ins.invoke(r_eq, "java.str.equals", (r_hc, r_hash)),
                ins.if_eqz(r_eq, no_match_label),
            ]
        elif shape is PrologueShape.SPLIT:
            # Hc compared in two substring halves; the first live
            # if_eqz lands six instructions after the hash invoke,
            # outside the published stripper's five-slot window.
            r_lo, r_mid, r_hi, r_half, r_hc2, r_eq2 = editor.regs(6)
            head = [
                ins.const(r_salt, materials.salt_hex),
                ins.const(r_id, materials.bomb_id),
                ins.invoke(r_hash, call("bomb.hash"), (var_reg, r_salt, r_id)),
                ins.const(r_hc, materials.hc_hex[:20]),
                ins.const(r_lo, 0),
                ins.const(r_mid, 20),
                ins.invoke(r_half, "java.str.substring", (r_hash, r_lo, r_mid)),
                ins.invoke(r_eq, "java.str.equals", (r_half, r_hc)),
                ins.if_eqz(r_eq, no_match_label),
                ins.const(r_hc2, materials.hc_hex[20:]),
                ins.const(r_hi, 40),
                ins.invoke(r_half, "java.str.substring", (r_hash, r_mid, r_hi)),
                ins.invoke(r_eq2, "java.str.equals", (r_half, r_hc2)),
                ins.if_eqz(r_eq2, no_match_label),
            ]
        elif shape is PrologueShape.DECOY:
            # Dead decoy compare first: Hash(X|salt) == decoy implies
            # X != c, so branching to no-match is semantically exact --
            # and the live if_eqz is pushed out of the strip window
            # (the in-window branch is an if_nez the stripper ignores).
            r_decoy, r_dq = editor.regs(2)
            head = [
                ins.const(r_salt, materials.salt_hex),
                ins.const(r_id, materials.bomb_id),
                ins.invoke(r_hash, call("bomb.hash"), (var_reg, r_salt, r_id)),
                ins.const(r_decoy, decoy_hex_for(materials.hc_hex)),
                ins.invoke(r_dq, "java.str.equals", (r_hash, r_decoy)),
                ins.if_nez(r_dq, no_match_label),
                ins.const(r_hc, materials.hc_hex),
                ins.invoke(r_eq, "java.str.equals", (r_hash, r_hc)),
                ins.if_eqz(r_eq, no_match_label),
            ]
        else:
            head = [
                ins.const(r_salt, materials.salt_hex),
                ins.const(r_id, materials.bomb_id),
                ins.invoke(r_hash, call("bomb.hash"), (var_reg, r_salt, r_id)),
                ins.const(r_hc, materials.hc_hex),
                ins.invoke(r_eq, "java.str.equals", (r_hash, r_hc)),
                ins.if_eqz(r_eq, no_match_label),
            ]

        out: List[Instr] = head + [
            ins.invoke(r_key, call("bomb.derive"), (var_reg, r_salt)),
            ins.const(r_ct, ciphertext),
            ins.invoke(r_blob, call("bomb.decrypt"), (r_ct, r_key, r_id)),
            ins.const(r_len, r + 2),
            ins.new_array(r_arr, r_len),
        ]
        for slot, reg in enumerate(live_regs):
            out.append(ins.const(r_idx, slot))
            out.append(ins.aput(reg, r_arr, r_idx))
        out.append(ins.const(r_entry, materials.entry))
        out.append(
            ins.invoke(r_res, call("bomb.load_run"), (r_blob, r_entry, r_arr, r_id))
        )
        for slot, reg in enumerate(live_regs):
            out.append(ins.const(r_idx, slot))
            out.append(ins.aget(reg, r_res, r_idx))
        out.append(ins.const(r_idx, r))
        out.append(ins.aget(r_ctl, r_res, r_idx))
        return_value = editor.fresh_label("retv")
        out.append(ins.if_eqz(r_ctl, match_exit_label))
        out.append(ins.const(r_one, 1))
        out.append(ins.if_eq(r_ctl, r_one, return_value))
        out.append(ins.ret_void())
        out.append(Label(return_value))
        out.append(ins.const(r_idx, r + 1))
        out.append(ins.aget(r_rv, r_res, r_idx))
        out.append(ins.ret(r_rv))
        return out

    # ------------------------------------------------------------------
    # shape transforms
    # ------------------------------------------------------------------

    def transform_weavable(
        self,
        method: DexMethod,
        qc: QualifiedCondition,
        region: BodyRegion,
        inner: Optional[InnerCondition],
        real: bool = True,
    ) -> Bomb:
        """Equality-falls-through QC with a weavable body (Case A)."""
        if qc.kind is QCKind.SWITCH_CASE:
            return self._transform_switch(method, qc, region, inner, real)

        first_pc = qc.compare_pc if qc.compare_pc is not None else qc.branch_pc
        if qc.compare_pc is not None and qc.branch_pc != qc.compare_pc + 1:
            raise InstrumentationError("string compare and branch not adjacent")

        materials = self._materials(qc.const_value)
        editor = MethodEditor(method, label_ns=materials.bomb_id)
        body = method.instructions[region.start : region.end]
        referenced, packed, reg_map, slot_locals = self._region_packing(
            method, region.start, region.end, body
        )
        woven = prepare_woven_body(
            body,
            region.exit_label,
            reg_map=reg_map,
            label_prefix=f"w{materials.bomb_id}_",
        )
        built = self._make_payload(
            materials, qc.const_value, len(packed), woven, real, inner,
            local_count=len(referenced), slot_locals=slot_locals,
        )
        morph = self._next_morph()
        block = self._emit_invocation(
            editor,
            qc.var_reg,
            materials,
            built.ciphertext,
            packed,
            no_match_label=region.exit_label,
            match_exit_label=region.exit_label,
            morph=morph,
        )
        editor.splice(first_pc, region.end, block)
        erased = qc.const_removable and qc.const_def_pc is not None
        if erased:
            editor.nop(qc.const_def_pc)
        method.validate()
        self._note_site(materials, method, built, qc.const_value)
        return self._record(
            materials, method, qc, real, woven=True, detection=built.detection,
            response=built.response, inner=built.inner, const_erased=erased,
            packed_regs=tuple(packed), morph=morph,
        )

    def transform_payload_only(
        self,
        method: DexMethod,
        qc: QualifiedCondition,
        inner: Optional[InnerCondition],
        real: bool = True,
    ) -> Bomb:
        """Equality-jumps or non-weavable QC (Case B): body stays put."""
        if qc.kind is QCKind.SWITCH_CASE:
            return self._transform_switch(method, qc, None, inner, real)

        materials = self._materials(qc.const_value)
        editor = MethodEditor(method, label_ns=materials.bomb_id)
        built = self._make_payload(
            materials, qc.const_value, 0, (), real, inner
        )
        morph = self._next_morph()
        branch = method.instructions[qc.branch_pc]

        if qc.equal_jumps:
            # if_eq X, c, @body  ->  bomb; match -> @body, miss -> fall on.
            after = editor.fresh_label("after")
            block = self._emit_invocation(
                editor, qc.var_reg, materials, built.ciphertext, (),
                no_match_label=after, match_exit_label=branch.target,
                morph=morph,
            )
            block.append(Label(after))
            editor.splice(qc.branch_pc, qc.branch_pc + 1, block)
        else:
            # if_ne X, c, @skip  ->  miss -> @skip, match -> payload then
            # fall into the original body.
            miss = editor.fresh_label("miss")
            cont = editor.fresh_label("cont")
            block = self._emit_invocation(
                editor, qc.var_reg, materials, built.ciphertext, (),
                no_match_label=miss, match_exit_label=cont,
                morph=morph,
            )
            block.append(Label(miss))
            block.append(ins.goto(branch.target))
            block.append(Label(cont))
            editor.splice(qc.branch_pc, qc.branch_pc + 1, block)

        # The constant may only be erased when nothing still reads it.
        # In the payload-only string shape the compare INVOKE survives
        # (only the zero-test branch was replaced), so the constant
        # register is still consumed there.
        erased = (
            qc.const_removable
            and qc.const_def_pc is not None
            and qc.compare_pc is None
        )
        if erased:
            editor.nop(qc.const_def_pc)
        method.validate()
        self._note_site(materials, method, built, qc.const_value)
        return self._record(
            materials, method, qc, real, woven=False, detection=built.detection,
            response=built.response, inner=built.inner, const_erased=erased,
            morph=morph,
        )

    def _transform_switch(
        self,
        method: DexMethod,
        qc: QualifiedCondition,
        region: Optional[BodyRegion],
        inner: Optional[InnerCondition],
        real: bool,
    ) -> Bomb:
        """Switch-case QC: remove the key, route via the bomb (Case E)."""
        switch_pc = qc.branch_pc
        switch = method.instructions[switch_pc]
        case_label = switch.value[qc.case_key]

        materials = self._materials(qc.const_value)
        editor = MethodEditor(method, label_ns=materials.bomb_id)
        woven: Sequence[Instr] = ()
        packed: List[int] = []
        referenced: List[int] = []
        slot_locals: Tuple[int, ...] = ()
        if region is not None:
            body = method.instructions[region.start : region.end]
            referenced, packed, reg_map, slot_locals = self._region_packing(
                method, region.start, region.end, body
            )
            woven = prepare_woven_body(
                body,
                region.exit_label,
                reg_map=reg_map,
                label_prefix=f"w{materials.bomb_id}_",
            )
        built = self._make_payload(
            materials, qc.const_value, len(packed), woven, real, inner,
            local_count=len(referenced), slot_locals=slot_locals,
        )
        morph = self._next_morph()

        # Splice the (later) region first so the switch pc stays valid.
        if region is not None:
            editor.splice(region.start, region.end, [])

        do_switch = editor.fresh_label("doswitch")
        if region is not None:
            exit_label = region.exit_label or do_switch
        else:
            exit_label = case_label
        block = self._emit_invocation(
            editor, qc.var_reg, materials, built.ciphertext, packed,
            no_match_label=do_switch, match_exit_label=exit_label,
            morph=morph,
        )
        block.append(Label(do_switch))
        new_table = {k: v for k, v in switch.value.items() if k != qc.case_key}
        if new_table:
            block.append(ins.switch(switch.a, new_table))
        editor.splice(switch_pc, switch_pc + 1, block)
        method.validate()
        self._note_site(materials, method, built, qc.const_value)
        return self._record(
            materials, method, qc, real, woven=region is not None,
            detection=built.detection, response=built.response, inner=built.inner,
            packed_regs=tuple(packed), morph=morph,
        )

    def insert_artificial(
        self,
        method: DexMethod,
        pc: int,
        field_name: str,
        constant,
        inner: Optional[InnerCondition],
    ) -> Bomb:
        """Insert an artificial QC bomb at ``pc`` testing a static field."""
        materials = self._materials(constant)
        editor = MethodEditor(method, label_ns=materials.bomb_id)
        built = self._make_payload(
            materials, constant, 0, (), True, inner
        )
        morph = self._next_morph()
        var_reg = editor.reg()
        after = editor.fresh_label("after")
        block: List[Instr] = [ins.sget(var_reg, field_name)]
        block += self._emit_invocation(
            editor, var_reg, materials, built.ciphertext, (),
            no_match_label=after, match_exit_label=after,
            morph=morph,
        )
        block.append(Label(after))
        editor.insert(pc, block)
        method.validate()
        self._note_site(materials, method, built, constant)
        inner = built.inner
        bomb = Bomb(
            bomb_id=materials.bomb_id,
            method=method.qualified_name,
            origin=BombOrigin.ARTIFICIAL,
            strength=_strength_of(constant),
            const_value=constant,
            salt_hex=materials.salt_hex,
            hc_hex=materials.hc_hex,
            payload_class=materials.payload_class,
            woven=False,
            detection=built.detection,
            response=built.response,
            inner_description=inner.describe() if inner else "",
            inner_probability=inner.probability() if inner else 1.0,
            prologue_shape=morph.describe() if morph else "classic",
        )
        return bomb

    # ------------------------------------------------------------------

    def _next_morph(self) -> Optional[PrologueMorph]:
        """Draw a prologue variant; ``None`` (pure Listing 3) unmeshed."""
        return self._mesh.next_morph() if self._mesh is not None else None

    def _note_site(
        self,
        materials: BombMaterials,
        method: DexMethod,
        built: PayloadBuild,
        constant,
    ) -> None:
        """Remember a real bomb for the mesh's second weaving pass."""
        if self._mesh is None or built.spec.detection is None:
            return
        self.pending_sites.append(
            PendingSite(
                bomb_id=materials.bomb_id,
                method_name=method.qualified_name,
                constant=constant,
                salt=materials.salt,
                spec=built.spec,
                ciphertext=built.ciphertext,
            )
        )

    def _record(
        self,
        materials: BombMaterials,
        method: DexMethod,
        qc: QualifiedCondition,
        real: bool,
        woven: bool,
        detection,
        response,
        inner,
        const_erased: bool = False,
        packed_regs: Tuple[int, ...] = (),
        morph: Optional[PrologueMorph] = None,
    ) -> Bomb:
        return Bomb(
            bomb_id=materials.bomb_id,
            method=method.qualified_name,
            origin=BombOrigin.EXISTING if real else BombOrigin.BOGUS,
            strength=qc.strength,
            const_value=qc.const_value,
            salt_hex=materials.salt_hex,
            hc_hex=materials.hc_hex,
            payload_class=materials.payload_class,
            woven=woven,
            detection=detection,
            response=response,
            inner_description=inner.describe() if (inner and real) else "",
            inner_probability=inner.probability() if (inner and real) else 1.0,
            const_erased=const_erased,
            packed_regs=packed_regs,
            prologue_shape=morph.describe() if morph else "classic",
        )


def _strength_of(value):
    from repro.analysis.qualified_conditions import Strength

    return Strength.of_value(value)
