"""Live-variable analysis (backward may-analysis over the CFG).

Used by the instrumenter to shrink bomb payload arrays: a register the
woven body only uses as a scratch temporary (dead on entry, dead at the
join) never needs to travel through the caller/payload array at all.

Standard worklist formulation at instruction granularity::

    live_out[pc] = union of live_in[successors of pc]
    live_in[pc]  = reads(pc) | (live_out[pc] - writes(pc))

Method parameters are treated as defined at entry; every register is
dead at RETURN_VOID, only the returned register is live at RETURN.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.analysis.cfg import method_successors
from repro.dex.instructions import Instr
from repro.dex.model import DexMethod


def liveness(
    instructions: Sequence[Instr], successors: Sequence[Tuple[int, ...]]
) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Return ``(live_in, live_out)`` register sets per pc, given the
    per-pc successors of :func:`repro.analysis.cfg.instruction_successors`."""
    count = len(instructions)
    live_in: List[Set[int]] = [set() for _ in range(count)]
    live_out: List[Set[int]] = [set() for _ in range(count)]

    # Iterate to a fixpoint, walking backwards for fast convergence.
    changed = True
    while changed:
        changed = False
        for pc in range(count - 1, -1, -1):
            instr = instructions[pc]
            out_set: Set[int] = set()
            for successor in successors[pc]:
                out_set |= live_in[successor]
            in_set = set(instr.reads()) | (out_set - set(instr.writes()))
            if out_set != live_out[pc] or in_set != live_in[pc]:
                live_out[pc] = out_set
                live_in[pc] = in_set
                changed = True
    return live_in, live_out


def live_registers_for_region(
    method: DexMethod, start: int, end: int
) -> Set[int]:
    """Registers a woven region must exchange with its caller.

    The union of:

    * registers live on entry to the region (the body reads them before
      writing), and
    * registers the region writes that are still live at the join point
      (code after the bomb reads them).

    Registers referenced only as region-internal temporaries are
    excluded -- they get payload-local storage but no array slot.

    The join is taken at the region's actual exits: a region that
    leaves through a GOTO (or ends in a RETURN) contributes the
    liveness of the *target* pc, not of whatever instruction happens to
    sit at ``end`` textually.
    """
    successors = method_successors(method)
    live_in, _ = liveness(method.instructions, successors)
    entry_live = set(live_in[start]) if start < len(live_in) else set()

    writes: Set[int] = set()
    reads: Set[int] = set()
    join_live: Set[int] = set()
    for pc in range(start, min(end, len(method.instructions))):
        instr = method.instructions[pc]
        reads |= set(instr.reads())
        writes |= set(instr.writes())
        for successor in successors[pc]:
            if not start <= successor < end:
                join_live |= live_in[successor]

    referenced = reads | writes
    return referenced & (entry_live | (writes & join_live))
