"""Attack-side signature library for bomb prologues.

Satellite of the mesh PR: the deletion and text-search attacks used to
hard-code their pattern knowledge (a literal ``bomb.hash`` match and a
``pc + 6`` branch lookahead).  This module makes that knowledge an
explicit, configurable artifact shared by every pattern-matching
adversary, in three tiers of sophistication:

1. :data:`CLASSIC_SIGNATURE` -- the published single-pattern strip:
   anchor on the literal ``bomb.hash`` invoke, patch the first
   ``if_eqz`` within a five-instruction window.  Meshed apps morph
   prologues specifically so this signature misses at least every
   other bomb.
2. :data:`EXTENDED_SIGNATURE` -- the same anchor with a wider window
   and more branch opcodes: catches the SPLIT and DECOY shapes, still
   blind to per-app alias symbols.
3. :func:`strip_learned` -- the adaptive multi-pattern stripper: it
   *learns* the one invariant every bomb must carry (a long bytes
   ciphertext constant, which ordinary app code never embeds) and
   retargets every forward conditional branch shielding it.  Aliases
   and shape morphs do not help against it -- but it can no longer
   tell a guard branch from adjacent app logic, so on a woven app the
   strip is corrupting (exactly the trade-off weaving is designed to
   force).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.dex import instructions as ins
from repro.dex.model import DexFile, DexMethod
from repro.dex.opcodes import Op

#: What a realistic attacker greps disassembly for (shared with the
#: ``text-search-surface`` lint rule's adversary model).
SUSPICIOUS_PATTERNS = (
    "get_public_key",
    "get_manifest_digest",
    "get_method_hash",
    "bomb.hash",
    "bomb.decrypt",
    "bomb.load_run",
)

#: App bytecode never embeds long byte blobs; payload ciphertexts are
#: the only bytes constants this size, so they are a learnable anchor.
MIN_CIPHERTEXT_LEN = 32

#: How far before a ciphertext constant the adaptive stripper considers
#: conditional branches part of the bomb prologue.
DEFAULT_LEARN_WINDOW = 16

#: Tighter window for *liveness*: in every emitted prologue shape the
#: final shielding branch sits within three instructions of the
#: ciphertext constant (branch, key-derive invoke, const), while real
#: app code is always a full prologue head (>= 7 instructions) away, so
#: this window sees bomb-internal branches only.
LIVE_WINDOW = 4


@dataclass(frozen=True)
class PrologueSignature:
    """One describable bomb-prologue pattern.

    ``branch_window`` bounds the lookahead after a trigger invoke: pcs
    ``invoke_pc + 1 .. invoke_pc + branch_window - 1`` are scanned (the
    historical hard-coded behavior is ``branch_window=6``).  Up to
    ``max_branches`` branches whose opcode is in ``branch_ops`` are
    rewritten per site.
    """

    name: str
    trigger_invokes: Tuple[str, ...] = ("bomb.hash",)
    branch_window: int = 6
    branch_ops: Tuple[Op, ...] = (Op.IF_EQZ,)
    max_branches: int = 1


#: The published Listing-3 strip: the literal ``bomb.hash`` anchor and the
#: first ``if_eqz`` after it.
CLASSIC_SIGNATURE = PrologueSignature(name="listing3-classic")

#: Wider single-pattern strip: catches split/decoy prologue morphs but
#: still anchors on the canonical invoke name, so aliased bombs survive.
EXTENDED_SIGNATURE = PrologueSignature(
    name="extended-window",
    branch_window=16,
    branch_ops=(Op.IF_EQZ, Op.IF_NEZ),
    max_branches=4,
)


def find_trigger_sites(
    dex: DexFile, signature: PrologueSignature = CLASSIC_SIGNATURE
) -> List[Tuple[DexMethod, int]]:
    """``(method, pc)`` of every trigger invoke the signature matches."""
    sites: List[Tuple[DexMethod, int]] = []
    for method in dex.iter_methods():
        for pc, instr in enumerate(method.instructions):
            if instr.op is Op.INVOKE and instr.value in signature.trigger_invokes:
                sites.append((method, pc))
    return sites


def strip_with_signature(
    dex: DexFile, signature: PrologueSignature = CLASSIC_SIGNATURE
) -> int:
    """Disable every prologue the signature matches; returns branches
    patched.  Matched branches are rewritten into unconditional jumps
    to their own target (the no-match continuation), so the payload
    behind them can never run."""
    patched = 0
    for method, pc in find_trigger_sites(dex, signature):
        instructions = method.instructions
        rewritten = 0
        stop = min(pc + signature.branch_window, len(instructions))
        for look in range(pc + 1, stop):
            candidate = instructions[look]
            if candidate.op in signature.branch_ops and candidate.target is not None:
                instructions[look] = ins.goto(candidate.target)
                patched += 1
                rewritten += 1
                if rewritten >= signature.max_branches:
                    break
        if rewritten:
            method.invalidate()
    return patched


def find_ciphertext_anchors(
    dex: DexFile, min_len: int = MIN_CIPHERTEXT_LEN
) -> List[Tuple[DexMethod, int]]:
    """``(method, pc)`` of every learnable payload-ciphertext constant."""
    anchors: List[Tuple[DexMethod, int]] = []
    for method in dex.iter_methods():
        for pc, instr in enumerate(method.instructions):
            if (
                instr.op is Op.CONST
                and isinstance(instr.value, bytes)
                and len(instr.value) >= min_len
            ):
                anchors.append((method, pc))
    return anchors


def count_live_anchors(
    dex: DexFile,
    live_window: int = LIVE_WINDOW,
    min_len: int = MIN_CIPHERTEXT_LEN,
) -> int:
    """Ciphertext anchors still shielded by a conditional forward
    branch -- i.e. bombs a strip left armed.  A fully stripped app has
    zero (every prologue branch became an unconditional jump); a meshed
    app after a single-pattern strip keeps every morphed survivor.
    A static over-approximation: it asks whether the branch in front of
    the payload is still conditional, not whether the payload is
    reachable."""
    live = 0
    for method, ct_pc in find_ciphertext_anchors(dex, min_len):
        labels = method.label_map()
        instructions = method.instructions
        for pc in range(max(0, ct_pc - live_window), ct_pc):
            instr = instructions[pc]
            if instr.target is None or not instr.op.value.startswith("if_"):
                continue
            target_pc = labels.get(instr.target)
            if target_pc is not None and target_pc > ct_pc:
                live += 1
                break
    return live


def strip_learned(
    dex: DexFile,
    learn_window: int = DEFAULT_LEARN_WINDOW,
    min_len: int = MIN_CIPHERTEXT_LEN,
) -> int:
    """The adaptive multi-pattern strip; returns branches patched.

    For each ciphertext anchor, every conditional branch shortly before
    it that jumps *forward past* the anchor is treated as a guard and
    rewritten unconditional: whatever shape or alias the prologue uses,
    its no-match branches must skip the decrypt/run sequence, and that
    control-flow fact is not obfuscatable.  The cost of this generality
    is collateral damage -- an app branch inside the window that happens
    to jump past the bomb is rewritten too, and woven bombs' no-match
    paths skip relocated app code by construction, so the stripped app
    diverges behaviorally (measured by the differential test).
    """
    patched = 0
    for method, ct_pc in find_ciphertext_anchors(dex, min_len):
        labels = method.label_map()
        instructions = method.instructions
        changed = False
        for pc in range(max(0, ct_pc - learn_window), ct_pc):
            instr = instructions[pc]
            if instr.target is None or not instr.op.value.startswith("if_"):
                continue
            target_pc = labels.get(instr.target)
            if target_pc is None or target_pc <= ct_pc:
                continue
            instructions[pc] = ins.goto(instr.target)
            patched += 1
            changed = True
        if changed:
            method.invalidate()
    return patched
