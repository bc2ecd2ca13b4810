"""The naive logic-bomb baseline (Listing 2 of the paper).

``if (X == c) { repackaging detection }`` -- no hashing, no encryption,
no weaving.  The detection payload sits in cleartext inside the guarded
branch.  This is the strawman Section 3.1 dismisses: symbolic execution
solves the trigger, forced execution runs the payload directly, text
search finds ``get_public_key``, and deleting the branch is free.

Implemented so the attack suite can demonstrate all of that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.analysis.qualified_conditions import find_qualified_conditions
from repro.apk.package import Apk, build_apk
from repro.crypto import RSAKeyPair
from repro.dex import instructions as ins
from repro.dex.instructions import Instr, Label
from repro.dex.model import DexMethod
from repro.dex.opcodes import Op


@dataclass
class NaiveSite:
    """Ground truth for one planted bomb, in *final* (post-insertion)
    instruction coordinates.

    ``branch_pc`` is the qualified condition's branch; the detection
    block occupies ``[start, end)`` right after it.  A static detector
    "localizes" the bomb when it flags this method at ``branch_pc`` or
    anywhere inside the inserted block.
    """

    method: str
    branch_pc: int
    start: int
    end: int

    def covers(self, method: str, pc: int) -> bool:
        return method == self.method and (
            pc == self.branch_pc or self.start <= pc < self.end
        )


@dataclass
class NaiveReport:
    """Where naive bombs were planted.

    ``sites`` keeps the legacy ``method@pc`` strings (pre-insertion
    branch pcs, in insertion order); ``placements`` carries the
    adjusted coordinates evaluation code should use.
    """

    sites: List[str] = field(default_factory=list)
    placements: List[NaiveSite] = field(default_factory=list)


class NaiveProtector:
    """Plants cleartext detection inside existing qualified conditions."""

    def __init__(self, seed: int = 0, max_sites: int = 40) -> None:
        self._seed = seed
        self._max_sites = max_sites

    def protect(self, apk: Apk, developer_key: RSAKeyPair) -> Tuple[Apk, NaiveReport]:
        dex = apk.dex()
        resources = apk.resources().copy()
        original_key_hex = apk.cert.fingerprint_hex()
        report = NaiveReport()

        for method in sorted(dex.iter_methods(), key=lambda m: m.qualified_name):
            if len(report.sites) >= self._max_sites:
                break
            qcs = [
                qc for qc in find_qualified_conditions(method)
                if not qc.equal_jumps and qc.kind.value != "switch_case"
            ]
            # Bottom-up so earlier pcs stay valid.
            inserted: List[int] = []
            block_len = 0
            for qc in sorted(qcs, key=lambda q: -q.branch_pc):
                if len(report.sites) >= self._max_sites:
                    break
                block = self._detection_block(method, original_key_hex)
                block_len = len(block)
                # Insert right after the branch: runs exactly when the
                # original equality held.
                method.instructions[qc.branch_pc + 1 : qc.branch_pc + 1] = block
                method.invalidate()
                method.validate()
                report.sites.append(f"{method.qualified_name}@{qc.branch_pc}")
                inserted.append(qc.branch_pc)
            # Each bottom-up insertion shifts every *higher* site by one
            # block length; record final coordinates for evaluation.
            for original_pc in sorted(inserted):
                below = sum(1 for other in inserted if other < original_pc)
                adjusted = original_pc + block_len * below
                report.placements.append(
                    NaiveSite(
                        method=method.qualified_name,
                        branch_pc=adjusted,
                        start=adjusted + 1,
                        end=adjusted + 1 + block_len,
                    )
                )

        dex.validate()
        return build_apk(dex, resources, developer_key), report

    @staticmethod
    def _detection_block(method: DexMethod, key_hex: str) -> List[Instr]:
        base = method.grow_registers(4)
        current, original, same, message = range(base, base + 4)
        ok = f"__naive_ok_{base}_{method.name}"
        return [
            ins.invoke(current, "android.pm.get_public_key", ()),
            ins.const(original, key_hex),
            ins.invoke(same, "java.str.equals", (current, original)),
            Instr(Op.IF_NEZ, a=same, target=ok),
            ins.const(message, "naive bomb: repackaging detected"),
            ins.throw(message),
            Label(ok),
        ]
