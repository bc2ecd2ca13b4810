"""Backward program slicing (the HARVESTER attack primitive).

Section 2.1, "Circumventing trigger conditions": "an attacker may
perform backward program slicing starting from that line of code, and
then execute the extracted slices to uncover the payload behavior".

The slicer computes, for a criterion pc inside one method, the set of
pcs whose instructions may influence it: data dependencies through
registers and static fields, plus control dependencies on the branches
that guard the criterion.  It is intraprocedural, which matches how the
attack is exercised here -- the whole bomb prologue (hash, compare,
decrypt) is local to the instrumented method.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.cfg import build_cfg
from repro.dex.model import DexMethod
from repro.dex.opcodes import CONDITIONAL_BRANCHES, Op


def backward_slice(method: DexMethod, criterion_pc: int) -> Set[int]:
    """Pcs of every instruction the criterion transitively depends on.

    The criterion itself is included.  Conservative: any SGET pulls in
    every SPUT of the same field; control dependence pulls in every
    conditional branch that can bypass the dependent instruction.
    """
    instructions = method.instructions
    if not 0 <= criterion_pc < len(instructions):
        raise IndexError(f"criterion pc {criterion_pc} out of range")

    cfg = build_cfg(method)
    sliced: Set[int] = {criterion_pc}
    static_interest: Set[str] = set()
    processed_statics: Set[str] = set()

    def register_pass(seed: List[Tuple[int, frozenset]]) -> None:
        """Propagate register interest backwards from the seed points."""
        work = list(seed)
        seen: Set[Tuple[int, frozenset]] = set()
        while work:
            pc, interest = work.pop()
            if (pc, interest) in seen:
                continue
            seen.add((pc, interest))

            block = cfg.block_of(pc)
            frontier: List[int] = []
            if pc > block.start:
                frontier.append(pc - 1)
            else:
                for predecessor in block.predecessors:
                    pred_block = cfg.blocks[predecessor]
                    if pred_block.end > pred_block.start:
                        frontier.append(pred_block.end - 1)

            for prev_pc in frontier:
                prev = instructions[prev_pc]
                new_interest = set(interest)
                written = set(prev.writes())
                if written & new_interest:
                    sliced.add(prev_pc)
                    if prev.op is Op.SGET:
                        static_interest.add(prev.value)
                    new_interest -= written
                    new_interest |= set(prev.reads())
                work.append((prev_pc, frozenset(new_interest)))

    register_pass([(criterion_pc, frozenset(instructions[criterion_pc].reads()))])

    # Static fields: any SPUT to a field the slice reads joins the slice
    # (with its own data dependencies), to a fixpoint.
    while static_interest - processed_statics:
        field_name = (static_interest - processed_statics).pop()
        processed_statics.add(field_name)
        for pc, instr in enumerate(instructions):
            if instr.op is Op.SPUT and instr.value == field_name:
                sliced.add(pc)
                register_pass([(pc, frozenset(instr.reads()))])

    # Control dependence: include every conditional branch whose outcome
    # decides whether a sliced instruction runs.
    sliced |= _guarding_branches(method, cfg, sliced)
    return sliced


def _guarding_branches(method: DexMethod, cfg, sliced: Set[int]) -> Set[int]:
    """Branches that can route control around any sliced instruction."""
    guards: Set[int] = set()
    sliced_blocks = {cfg.block_of(pc).index for pc in sliced}
    for block in cfg.blocks:
        for pc in block.pcs():
            instr = method.instructions[pc]
            if instr.op in CONDITIONAL_BRANCHES or instr.op is Op.SWITCH:
                # The branch guards the slice when its successors reach
                # *different sets* of sliced blocks (a common join block
                # being reachable from all sides does not make the
                # branch irrelevant to the conditional part).
                reach_sets = [
                    frozenset(cfg.reachable(successor) & sliced_blocks)
                    for successor in block.successors
                ]
                if len(set(reach_sets)) > 1:
                    guards.add(pc)
    return guards


def extract_slice_method(method: DexMethod, criterion_pc: int) -> DexMethod:
    """Materialize the slice as a runnable method (HARVESTER style).

    Non-sliced instructions become NOPs so labels and branch structure
    survive; the attacker then force-executes the result.
    """
    from repro.dex.instructions import Instr

    keep = backward_slice(method, criterion_pc)
    body = []
    for pc, instr in enumerate(method.instructions):
        if pc in keep or instr.op is Op.LABEL or instr.op in (
            Op.RETURN,
            Op.RETURN_VOID,
            Op.GOTO,
        ):
            body.append(instr)
        else:
            body.append(Instr(Op.NOP))
    return DexMethod(
        name=f"{method.name}$slice{criterion_pc}",
        class_name=method.class_name,
        params=method.params,
        registers=method.registers,
        instructions=body,
    )
