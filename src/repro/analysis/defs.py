"""Local def-use helpers: constant tracking and use sites.

The qualified-condition finder needs to know whether a branch operand
holds a *statically determinable constant* at the branch.  We resolve
this with a conservative backward scan inside the basic block: follow
MOVE chains, stop at block boundaries (labels, terminators) and at any
intervening redefinition.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dex.model import DexMethod
from repro.dex.opcodes import Op, TERMINATORS


def constant_in_block(method: DexMethod, pc: int, reg: int) -> Optional[Tuple[int, object]]:
    """If ``reg`` provably holds a constant at ``pc``, return
    ``(def_pc, value)`` of the defining CONST; otherwise None.

    Only scans backwards within the basic block (a label or terminator
    stops the scan), following MOVE chains.
    """
    instructions = method.instructions
    cursor = pc - 1
    target = reg
    while cursor >= 0:
        instr = instructions[cursor]
        if instr.op is Op.LABEL or instr.op in TERMINATORS:
            return None
        writes = instr.writes()
        if target in writes:
            if instr.op is Op.CONST:
                return cursor, instr.value
            if instr.op is Op.MOVE:
                target = instr.a
                cursor -= 1
                continue
            return None
        cursor -= 1
    return None


def use_sites(method: DexMethod, reg: int) -> List[int]:
    """All pcs whose instruction reads ``reg``."""
    return [
        pc
        for pc, instr in enumerate(method.instructions)
        if reg in instr.reads()
    ]


def register_used_once(method: DexMethod, reg: int, use_pc: int) -> bool:
    """True when ``use_pc`` is the *only* read of ``reg`` in the method.

    The instrumenter may then delete the defining CONST -- "the constant
    value c, which works as the key, is removed from the code"
    (Section 3.2) -- without breaking other uses.
    """
    uses = use_sites(method, reg)
    return uses == [use_pc]
