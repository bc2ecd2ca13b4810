"""Natural-loop detection.

Section 7.2: "As a heuristic optimization, we avoid inserting bombs into
loops in a procedure" -- a bomb's hash-and-compare prologue inside a hot
loop would wreck the overhead budget.  :func:`instructions_in_loops`
returns the set of pcs the instrumenter must avoid.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dominators import dominators
from repro.dex.model import DexMethod


def natural_loops(cfg: ControlFlowGraph) -> List[Tuple[int, Set[int]]]:
    """All natural loops as ``(header_block, body_block_set)`` pairs.

    A back edge is ``tail -> header`` where header dominates tail; the
    loop body is the set of blocks that reach tail without going through
    header, plus header itself.
    """
    dom = dominators(cfg)
    reachable = cfg.reachable()
    loops: List[Tuple[int, Set[int]]] = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        for successor in block.successors:
            if successor in dom[block.index]:
                # back edge block.index -> successor
                header = successor
                body: Set[int] = {header}
                work = [block.index]
                while work:
                    node = work.pop()
                    if node in body:
                        continue
                    body.add(node)
                    work.extend(
                        p for p in cfg.blocks[node].predecessors if p in reachable
                    )
                loops.append((header, body))
    return loops


def instructions_in_loops(method: DexMethod) -> Set[int]:
    """Pcs of every instruction inside any natural loop of ``method``."""
    cfg = build_cfg(method)
    in_loop: Set[int] = set()
    for _, body in natural_loops(cfg):
        for block_index in body:
            in_loop.update(cfg.blocks[block_index].pcs())
    return in_loop
