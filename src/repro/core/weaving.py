"""Code weaving: relocating original app code into bomb payloads.

Section 3.4: "the repackaging detection and response code is woven into
the body of the if statement for the existing QC.  After code weaving,
if attackers delete conditional code that look suspicious, it will
corrupt the app itself."

Mechanically: the body region of a qualified condition is *moved* out of
the method and into the payload method, with

* every register renumbered through an explicit *live-register map*
  (only the registers the body actually touches travel through the
  caller/payload array -- this keeps bombs small and cheap),
* every label renamed with a unique prefix,
* jumps to the region's exit label redirected to the payload epilogue,
* returns rewritten by the payload builder via the control slot.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Dict, List, Sequence, Set

from repro.dex.instructions import Instr
from repro.dex.opcodes import Op
from repro.errors import InstrumentationError

#: Label the payload builder places at its epilogue; woven exits jump here.
EPILOGUE_LABEL = "__bomb_epilogue"


def referenced_registers(instructions: Sequence[Instr]) -> Set[int]:
    """Every register a sequence of instructions reads or writes."""
    regs: Set[int] = set()
    for instr in instructions:
        regs.update(instr.reads())
        regs.update(instr.writes())
    return regs


def map_registers(instr: Instr, reg_map: Dict[int, int]) -> Instr:
    """Renumber every register operand through ``reg_map``."""

    def lookup(reg):
        if reg is None:
            return None
        try:
            return reg_map[reg]
        except KeyError:
            raise InstrumentationError(
                f"woven instruction uses unmapped register r{reg}"
            ) from None

    return dc_replace(
        instr,
        dst=lookup(instr.dst),
        a=lookup(instr.a),
        b=lookup(instr.b),
        args=tuple(lookup(reg) for reg in instr.args),
    )


def _rename_target(target: str, mapping: Dict[str, str], exit_label: str) -> str:
    if target == exit_label:
        return EPILOGUE_LABEL
    try:
        return mapping[target]
    except KeyError:
        raise InstrumentationError(
            f"woven region branches to unknown label {target!r}"
        ) from None


def rename_labels(instr: Instr, mapping: Dict[str, str], exit_label: str) -> Instr:
    """Apply the label mapping; region-exit jumps go to the epilogue."""
    changed = {}
    if instr.op is Op.LABEL:
        changed["value"] = mapping[instr.value]
    if instr.target is not None:
        changed["target"] = _rename_target(instr.target, mapping, exit_label)
    if instr.op is Op.SWITCH:
        changed["value"] = {
            key: _rename_target(label, mapping, exit_label)
            for key, label in instr.value.items()
        }
    return dc_replace(instr, **changed) if changed else instr


def replace_const_value(method, old_value: bytes, new_value: bytes) -> bool:
    """Swap one bytes CONST operand in ``method`` for ``new_value``.

    The mesh's second weaving pass re-encrypts payloads after guard
    injection and must splice the new ciphertext back into its host
    method.  Sites are located by *value*, not recorded pc -- bottom-up
    splicing during instrumentation shifted every pc, but ciphertexts
    are unique (unique salt per bomb), so the value is an exact address.
    """
    for pc, instr in enumerate(method.instructions):
        if (
            instr.op is Op.CONST
            and isinstance(instr.value, bytes)
            and instr.value == old_value
        ):
            method.instructions[pc] = dc_replace(instr, value=new_value)
            method.invalidate()
            return True
    return False


def prepare_woven_body(
    region_instructions: Sequence[Instr],
    exit_label: str,
    reg_map: Dict[int, int],
    label_prefix: str,
) -> List[Instr]:
    """Transform a body region for embedding into a payload method.

    ``reg_map`` maps each caller register the body references to its
    payload-local register.  Returns the renumbered/relabelled
    instruction list.  RETURN / RETURN_VOID instructions are passed
    through untouched (modulo register mapping); the payload builder
    rewrites them into control-slot updates.
    """
    mapping = {
        instr.value: f"{label_prefix}{instr.value}"
        for instr in region_instructions
        if instr.op is Op.LABEL
    }
    out: List[Instr] = []
    for instr in region_instructions:
        instr = map_registers(instr, reg_map)
        instr = rename_labels(instr, mapping, exit_label)
        out.append(instr)
    return out
