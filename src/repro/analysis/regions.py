"""Weavable body regions.

Code weaving (Section 3.4) moves the *body* of an existing qualified
condition into the encrypted payload, so deleting the bomb deletes
original app code.  A body is extractable only when it is a
single-entry region whose exits we can model:

* fall through to the region end,
* jump to the designated exit label (the original join point),
* return or throw (handled via the payload's control slot).

``body_region(method, qc)`` locates the region for a QC; returns None
when the shape is not weavable (the bomb is then inserted payload-only,
which the paper permits -- weaving is a countermeasure, not a
requirement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.analysis.qualified_conditions import QCKind, QualifiedCondition
from repro.dex.model import DexMethod
from repro.dex.opcodes import CONDITIONAL_BRANCHES, Op


@dataclass(frozen=True)
class BodyRegion:
    """Instructions ``[start, end)`` plus the join label after the body."""

    start: int
    end: int
    exit_label: str

    def pcs(self) -> range:
        return range(self.start, self.end)


def _labels_inside(method: DexMethod, start: int, end: int) -> Set[str]:
    return {
        instr.value
        for instr in method.instructions[start:end]
        if instr.op is Op.LABEL
    }


def region_is_weavable(method: DexMethod, start: int, end: int, exit_label: str) -> bool:
    """Check the single-entry / known-exit contract for ``[start, end)``."""
    if end <= start:
        return False
    inside = _labels_inside(method, start, end)

    # Every branch inside must target a label inside the region or the
    # exit label.
    for instr in method.instructions[start:end]:
        for target in instr.branch_labels():
            if target != exit_label and target not in inside:
                return False

    # No label inside may be targeted from outside the region.
    for pc, instr in enumerate(method.instructions):
        if start <= pc < end:
            continue
        for target in instr.branch_labels():
            if target in inside:
                return False
    return True


def body_region(method: DexMethod, qc: QualifiedCondition) -> Optional[BodyRegion]:
    """The weavable body of ``qc``, or None.

    Weavable shapes (all "equality falls through" compiler patterns):

    * ``if_ne X, c, @skip; BODY; @skip:`` -- the classic ``if (X==c)``;
    * ``invoke rT, java.str.equals, ...; if_eqz rT, @skip; BODY; @skip:``;
    * a switch case whose body runs from its label to an unconditional
      ``goto @join`` (the break), with @join outside the case ladder.
    """
    instructions = method.instructions

    if qc.kind is QCKind.SWITCH_CASE:
        return _switch_case_region(method, qc)

    if qc.equal_jumps:
        # Equality transfers to the target: the body lives at the label
        # and its join is unknown without a full region analysis; treat
        # as non-weavable.
        return None

    skip_label = instructions[qc.branch_pc].target
    try:
        end = method.resolve(skip_label)
    except Exception:
        return None
    start = qc.branch_pc + 1
    if end <= start:
        return None
    if not region_is_weavable(method, start, end, skip_label):
        return None
    return BodyRegion(start=start, end=end, exit_label=skip_label)


def _switch_case_region(method: DexMethod, qc: QualifiedCondition) -> Optional[BodyRegion]:
    instructions = method.instructions
    switch = instructions[qc.branch_pc]
    case_label = switch.value.get(qc.case_key)
    if case_label is None:
        return None
    start = method.resolve(case_label) + 1  # skip the label marker itself

    # Walk forward to the terminating break (an unconditional goto out),
    # a return, or a throw.
    pc = start
    while pc < len(instructions):
        instr = instructions[pc]
        if instr.op is Op.GOTO:
            exit_label = instr.target
            end = pc + 1
            # The break target must be outside the case body itself.
            if exit_label in _labels_inside(method, start, end):
                return None
            if not region_is_weavable(method, start, end, exit_label):
                return None
            return BodyRegion(start=start, end=end, exit_label=exit_label)
        if instr.op in (Op.RETURN, Op.RETURN_VOID, Op.THROW):
            end = pc + 1
            # Returns need no join; use a sentinel exit that the weaver
            # recognizes (control slot forces the caller to return).
            if not region_is_weavable(method, start, end, ""):
                return None
            return BodyRegion(start=start, end=end, exit_label="")
        if instr.op is Op.LABEL and instr.value in set(method.instructions[qc.branch_pc].value.values()):
            # Fell into the next case: not weavable.
            return None
        if instr.op in CONDITIONAL_BRANCHES or instr.op is Op.SWITCH:
            # Conditional control inside a case is fine only if it stays
            # inside; region_is_weavable re-checks at the end, but we
            # cannot yet know the end -- keep walking.
            pass
        pc += 1
    return None
