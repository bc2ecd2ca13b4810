"""Control flow of a method: the one successor relation, the one
forward worklist solver, and the basic-block graph built on them.

:func:`instruction_successors` is the only place that decides which
pcs can follow an instruction; the verifier, the HSO walker, liveness
and :func:`build_cfg` all read control flow from it, through
:func:`method_successors`, which memoises it on the method.  A branch
to an undefined label raises :class:`~repro.errors.DexError`, as
:meth:`DexMethod.resolve` does, and so does a switch table that is no
dict.

Blocks are maximal straight-line instruction ranges over the method's
instruction list (label markers included in the range but not counted
as leaders on their own -- a label *is* a leader exactly because
something may jump to it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar

from repro.dex.instructions import Instr
from repro.dex.model import DexMethod
from repro.dex.opcodes import CONDITIONAL_BRANCHES, Op, TERMINATORS, UNCONDITIONAL_EXITS
from repro.errors import AnalysisError, DexError

#: Opcodes whose branch labels are control-flow edges.
_BRANCHES = CONDITIONAL_BRANCHES | {Op.GOTO, Op.SWITCH}

State = TypeVar("State")


def instruction_successors(
    instructions: Sequence[Instr], labels: Mapping[str, int]
) -> List[Tuple[int, ...]]:
    """Per-pc successor pcs, in branch-label order then fall-through.

    Every op but an unconditional exit falls through to ``pc + 1``
    while there is one; a branch also reaches its labels.  An
    undefined label or a switch table that is no dict raises
    :class:`DexError`.
    """
    last = len(instructions)
    out: List[Tuple[int, ...]] = []
    for pc, instr in enumerate(instructions):
        successors: List[int] = []
        if instr.op is Op.SWITCH and not isinstance(instr.value, dict):
            raise DexError(f"pc {pc}: switch table is not a dict")
        if instr.op in _BRANCHES:
            for name in instr.branch_labels():
                try:
                    successors.append(labels[name])
                except KeyError:
                    raise DexError(f"pc {pc}: undefined label {name!r}") from None
        if instr.op not in UNCONDITIONAL_EXITS and pc + 1 < last:
            successors.append(pc + 1)
        out.append(tuple(dict.fromkeys(successors)))
    return out


def method_successors(method: DexMethod) -> List[Tuple[int, ...]]:
    """:func:`instruction_successors` of ``method`` under its label
    map, memoised on the method.

    The memo is served only while the label map is the one it was
    computed under and ``method.instructions`` still holds the very
    ``Instr`` objects it was computed from (checked by identity), so an
    edit that swaps an instruction without :meth:`DexMethod.invalidate`
    never reads a stale relation.  Callers must not mutate the result.
    """
    labels = method.label_map()
    instructions = method.instructions
    memo = method._successors
    if (
        memo is not None
        and memo[0] is labels
        and len(memo[1]) == len(instructions)
        and all(map(is_, memo[1], instructions))
    ):
        return memo[2]
    successors = instruction_successors(instructions, labels)
    method._successors = (labels, tuple(instructions), successors)
    return successors


def solve_forward(
    instructions: Sequence[Instr],
    successors: Sequence[Tuple[int, ...]],
    entry: State,
    transfer: Callable[[State, Instr], State],
    join: Callable[[State, State], State],
) -> List[Optional[State]]:
    """Per-pc state on entry to each instruction, None where unreachable.

    A stack worklist from pc 0: a label passes its state through, any
    other instruction through ``transfer``; a successor whose joined
    state changes is pushed again.
    """
    states: List[Optional[State]] = [None] * len(instructions)
    states[0] = entry
    work = [0]
    while work:
        pc = work.pop()
        instr = instructions[pc]
        after = states[pc] if instr.op is Op.LABEL else transfer(states[pc], instr)
        for successor in successors[pc]:
            old = states[successor]
            merged = after if old is None else join(old, after)
            if merged != old:
                states[successor] = merged
                work.append(successor)
    return states


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

    def reachable(self, start: int = 0) -> Set[int]:
        """Block indices reachable from block ``start`` (default: the entry)."""
        seen: Set[int] = set()
        work = [start]
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
    successors = method_successors(method)

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

    # A block's edges are those of its last pc; each successor of that
    # pc is a label or the pc right after the block, so a leader.
    for block in blocks:
        block.successors = [leader_to_block[pc] for pc in successors[block.end - 1]]
        for successor in block.successors:
            blocks[successor].predecessors.append(block.index)

    return ControlFlowGraph(method=method, blocks=blocks)
