"""Control-flow graph construction.

Blocks are maximal straight-line instruction ranges over the method's
instruction list (label markers included in the range but not counted
as leaders on their own -- a label *is* a leader exactly because
something may jump to it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dex.model import DexMethod
from repro.dex.opcodes import CONDITIONAL_BRANCHES, Op, TERMINATORS, UNCONDITIONAL_EXITS
from repro.errors import AnalysisError


@dataclass
class BasicBlock:
    """Instructions ``[start, end)`` of the method's instruction list."""

    index: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    def pcs(self) -> range:
        return range(self.start, self.end)

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end


@dataclass
class ControlFlowGraph:
    """Blocks plus entry index; block 0 is always the method entry."""

    method: DexMethod
    blocks: List[BasicBlock]

    def block_of(self, pc: int) -> BasicBlock:
        for block in self.blocks:
            if pc in block:
                return block
        raise AnalysisError(f"pc {pc} not covered by any block")

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for block in self.blocks:
            out.extend((block.index, successor) for successor in block.successors)
        return out

    def reachable(self) -> Set[int]:
        """Block indices reachable from entry."""
        seen: Set[int] = set()
        work = [0] if self.blocks else []
        while work:
            index = work.pop()
            if index in seen:
                continue
            seen.add(index)
            work.extend(self.blocks[index].successors)
        return seen


def build_cfg(method: DexMethod) -> ControlFlowGraph:
    """Build the CFG of ``method``."""
    instructions = method.instructions
    if not instructions:
        raise AnalysisError(f"{method.qualified_name}: empty method")

    # Leaders: entry, every label marker, and every fall-through after a
    # terminator.
    leaders: Set[int] = {0}
    for pc, instr in enumerate(instructions):
        if instr.op is Op.LABEL:
            leaders.add(pc)
        if instr.op in TERMINATORS and pc + 1 < len(instructions):
            leaders.add(pc + 1)

    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    leader_to_block: Dict[int, int] = {}
    for index, start in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) else len(instructions)
        blocks.append(BasicBlock(index=index, start=start, end=end))
        leader_to_block[start] = index

    def block_at(pc: int) -> int:
        # pc is always a leader when used as a branch target (labels are
        # leaders); fall-through pcs are leaders by construction too.
        try:
            return leader_to_block[pc]
        except KeyError:
            raise AnalysisError(f"branch target pc {pc} is not a leader") from None

    for block in blocks:
        # Find the last *real* instruction of the block (trailing labels
        # only happen in empty tail blocks).
        terminator: Optional[int] = None
        for pc in range(block.end - 1, block.start - 1, -1):
            if instructions[pc].op is not Op.LABEL:
                terminator = pc
                break
        if terminator is None:
            # Label-only block: pure fall-through.
            if block.end < len(instructions):
                block.successors.append(block_at(block.end))
            continue
        instr = instructions[terminator]
        if instr.op in UNCONDITIONAL_EXITS:
            if instr.op is Op.GOTO:
                block.successors.append(block_at(method.resolve(instr.target)))
        elif instr.op in CONDITIONAL_BRANCHES:
            block.successors.append(block_at(method.resolve(instr.target)))
            if block.end < len(instructions):
                target = block_at(block.end)
                if target not in block.successors:
                    block.successors.append(target)
        elif instr.op is Op.SWITCH:
            for label in instr.value.values():
                target = block_at(method.resolve(label))
                if target not in block.successors:
                    block.successors.append(target)
            if block.end < len(instructions):
                target = block_at(block.end)
                if target not in block.successors:
                    block.successors.append(target)
        else:
            if block.end < len(instructions):
                block.successors.append(block_at(block.end))

    for block in blocks:
        for successor in block.successors:
            blocks[successor].predecessors.append(block.index)

    return ControlFlowGraph(method=method, blocks=blocks)
