"""Static trigger analysis: the Difuzer/TriggerZoo-style HSO detector.

The strongest *static* adversary the paper's threat model admits: an
interprocedural control-dependence + taint analysis that flags
suspicious triggers guarding hidden sensitive operations (HSOs).  This
is the analysis BombDroid's encrypted triggers must survive -- and the
one that makes short work of the naive Listing-2 bombs.

Pipeline, per :func:`analyze_dex`:

1.  **Control dependence.**  For every method, build the CFG and the
    control-dependence relation (:func:`repro.analysis.dominators.
    control_dependence`): which blocks execute *only because* a given
    branch decided so.

2.  **Predicate recovery.**  A forward abstract-interpretation walk
    (the verifier's successor relation and worklist solver, both from
    :mod:`repro.analysis.cfg`, over another lattice) tracks, per register,
    a set of *origin tags* -- where the value came from (environment
    reads, the clock, randomness, hashes, detection probes, plain
    constants) -- plus the constant it was compared against, when one
    is visible.  Each conditional branch is then classified into a
    :class:`PredicateKind`.

3.  **Interprocedural taint + sink summaries.**  A fixpoint over the
    call graph computes (a) the origin tags a method's return value can
    carry (so ``if (helper())`` classifies by what ``helper`` reads)
    and (b) whether calling a method can transitively reach a sensitive
    sink, with the sink's weight attenuated by call depth.

4.  **Scoring.**  A guarded region containing a sensitive sink becomes
    an :class:`HsoFinding`, scored Difuzer-style from sink sensitivity,
    predicate suspiciousness, guard-constant entropy and dead-branch
    asymmetry (a tiny guarded branch hanging off a huge method is the
    classic bomb shape).

Why BombDroid survives step 4: the Listing-3 prologue is *visible* (the
hash compare classifies as :attr:`PredicateKind.HASH_OPAQUE`) but the
guarded region contains only ``bomb.derive``/``bomb.decrypt``/
``bomb.load_run`` -- generic crypto plumbing, not a sensitive sink; the
detection and response code lives inside the encrypted payload where no
static pass can see it.  Deliberately, ``bomb.*`` names are *not*
treated as sinks: in a real deployment that runtime is inlined,
unremarkable crypto code, and keying on the names is the text-search
attack's job, not this analysis's.  Opaque guards are still *counted*
(:attr:`TriggerScan.opaque_guards`) so the resilience matrix can show
the detector saw the triggers yet could not localize a payload.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.cfg import (
    BasicBlock,
    build_cfg,
    method_successors,
    solve_forward,
)
from repro.analysis.dominators import control_dependence
from repro.dex.model import DexFile, DexMethod
from repro.dex.opcodes import (
    BINOPS,
    CONDITIONAL_BRANCHES,
    LIT_BINOPS,
    Op,
)
from repro.errors import AnalysisError, DexError

# ---------------------------------------------------------------------------
# Sources, sinks and their weights.
# ---------------------------------------------------------------------------

#: Sensitive sinks a hidden operation would reach, with Difuzer-style
#: sensitivity weights.  ``bomb.*`` is deliberately absent -- see the
#: module docstring.
SINK_WEIGHTS: Dict[str, float] = {
    "android.pm.get_public_key": 5.0,
    "android.pm.get_manifest_digest": 5.0,
    "android.pm.get_method_hash": 5.0,
    "android.net.report": 4.0,
    "android.reflect.call": 3.0,
}

#: Weight of a THROW reachable only under the suspicious predicate (a
#: guarded crash is the paper's canonical repackaging response).
THROW_WEIGHT = 2.0

#: Attenuation per call-graph edge for sinks reached through callees.
DEPTH_ATTENUATION = 0.6

#: Calls whose *result* is a salted hash / digest: taint stops here and
#: becomes opacity (the whole point of the Listing-3 transformation).
HASH_PRODUCERS = frozenset({
    "bomb.hash",
    "bomb.sha1_hex",
    "bomb.derive",
    "java.str.hash_code",
})

#: Calls whose result identifies the installed package (detection probes).
DETECT_PRODUCERS = frozenset({
    "android.pm.get_public_key",
    "android.pm.get_manifest_digest",
    "android.pm.get_method_hash",
})

#: String library calls that propagate their arguments' taint.
_STR_PROPAGATING = frozenset({
    "java.str.equals",
    "java.str.starts_with",
    "java.str.ends_with",
    "java.str.contains",
    "java.str.length",
    "java.str.concat",
    "java.str.substring",
    "java.str.char_at",
    "java.str.index_of",
    "java.str.from_int",
    "java.str.to_int",
    "java.math.abs",
    "java.math.min",
    "java.math.max",
})

#: Calls producing a comparison result whose compared-constant we keep
#: for guard-entropy estimation.
_EQUALITY_CALLS = frozenset({
    "java.str.equals",
    "java.str.starts_with",
    "java.str.ends_with",
    "java.str.contains",
})

_TAG_ENV_TIME = "env.time"
_TAG_ENV_NET = "env.net"
_TAG_ENV_DEVICE = "env.device"
_TAG_RANDOM = "random"
_TAG_HASH = "hash"
_TAG_DETECT = "detect"
_TAG_REFLECT = "reflect"
_TAG_FIELD = "field"

_EMPTY: FrozenSet[str] = frozenset()


def _env_tag(name: object) -> str:
    """Origin tag for one ``android.env.get`` variable name."""
    if isinstance(name, str):
        if name.startswith("time."):
            return _TAG_ENV_TIME
        if name.startswith("net."):
            return _TAG_ENV_NET
    return _TAG_ENV_DEVICE


class PredicateKind(enum.Enum):
    """Classification of one branch predicate, most suspicious first."""

    DETECTION_PROBE = "detection_probe"    # compares a pm.* identity probe
    HASH_OPAQUE = "hash_opaque"            # compares a salted hash / digest
    REFLECTED = "reflected"                # compares a reflection result
    ENV_TIME = "env_time"                  # clock / time-derived operand
    ENV_NET = "env_net"                    # network-state operand
    ENV_DEVICE = "env_device"              # device-identity operand
    RANDOM = "random"                      # rand()-derived operand
    CONST_COMPARISON = "const_comparison"  # plain value vs constant
    FIELD_STATE = "field_state"            # static-field flag test
    OTHER = "other"


#: Suspiciousness multiplier per predicate kind (Difuzer's trigger
#: features, collapsed to one factor).
PREDICATE_FACTORS: Dict[PredicateKind, float] = {
    PredicateKind.DETECTION_PROBE: 3.0,
    PredicateKind.HASH_OPAQUE: 2.5,
    PredicateKind.REFLECTED: 2.2,
    PredicateKind.ENV_TIME: 2.0,
    PredicateKind.ENV_NET: 2.0,
    PredicateKind.ENV_DEVICE: 1.8,
    PredicateKind.RANDOM: 1.5,
    PredicateKind.CONST_COMPARISON: 1.0,
    PredicateKind.FIELD_STATE: 0.8,
    PredicateKind.OTHER: 0.5,
}

#: Tag -> kind, in priority order (first match wins).
_TAG_PRIORITY: Tuple[Tuple[str, PredicateKind], ...] = (
    (_TAG_DETECT, PredicateKind.DETECTION_PROBE),
    (_TAG_HASH, PredicateKind.HASH_OPAQUE),
    (_TAG_REFLECT, PredicateKind.REFLECTED),
    (_TAG_ENV_TIME, PredicateKind.ENV_TIME),
    (_TAG_ENV_NET, PredicateKind.ENV_NET),
    (_TAG_ENV_DEVICE, PredicateKind.ENV_DEVICE),
    (_TAG_RANDOM, PredicateKind.RANDOM),
)

#: Entropy (bits) at which the guard constant counts as fully opaque --
#: a SHA-1 digest rendered as 40 hex characters.
_FULL_ENTROPY_BITS = 160.0


def guard_entropy_bits(value: object) -> float:
    """Crude entropy estimate (bits) of a guard's comparison constant.

    A long hex string (a digest or key fingerprint) is treated at its
    full nibble width; other strings by character diversity; ints by
    bit length.  The estimate only feeds a bounded score factor, so
    crude is fine.
    """
    if value is None:
        return 0.0
    if isinstance(value, bool):
        return 1.0
    if isinstance(value, int):
        return float(max(1, value.bit_length()))
    if isinstance(value, bytes):
        return 8.0 * len(value)
    if isinstance(value, str):
        if len(value) >= 16 and all(c in "0123456789abcdefABCDEF" for c in value):
            return 4.0 * len(value)
        distinct = len(set(value))
        if distinct <= 1:
            return 1.0
        return len(value) * math.log2(distinct)
    return 0.0


# ---------------------------------------------------------------------------
# Abstract values and the per-method dataflow walk.
# ---------------------------------------------------------------------------

#: One register's abstract value: (origin tags, visible constant).
AbsVal = Tuple[FrozenSet[str], object]

_BOTTOM: AbsVal = (_EMPTY, None)


def _join_val(a: AbsVal, b: AbsVal) -> AbsVal:
    const = a[1] if (type(a[1]) is type(b[1]) and a[1] == b[1]) else None
    return (a[0] | b[0], const)


def _join_state(a: Tuple[AbsVal, ...], b: Tuple[AbsVal, ...]) -> Tuple[AbsVal, ...]:
    # ``_join_val(x, x)`` equals ``x`` unless the constant is not equal
    # to itself (NaN), which the join drops.  ``x == y`` is no shortcut:
    # ``(t, 1) == (t, True)`` but their join is ``(t, None)``.
    return tuple([
        x if x is y and x[1] == x[1] else _join_val(x, y) for x, y in zip(a, b)
    ])


@dataclass
class MethodSummary:
    """Interprocedural facts about one method, computed to fixpoint."""

    return_tags: FrozenSet[str] = _EMPTY
    #: Best (attenuated) sink weight reachable by calling this method.
    sink_weight: float = 0.0
    #: Representative sink name, ``"via"``-prefixed when indirect.
    sink_name: Optional[str] = None
    sink_depth: int = 0


class _TaintWalker:
    """Forward per-pc abstract interpretation of one method."""

    def __init__(
        self,
        method: DexMethod,
        summaries: Optional[Dict[str, MethodSummary]] = None,
    ) -> None:
        self.method = method
        self.summaries = summaries or {}
        self.states: List[Optional[Tuple[AbsVal, ...]]] = []

    def run(self) -> List[Optional[Tuple[AbsVal, ...]]]:
        method = self.method
        instructions = method.instructions
        if not instructions:
            self.states = []
            return []
        self.states = solve_forward(
            instructions,
            method_successors(method),
            tuple(_BOTTOM for _ in range(method.registers)),
            self._transfer,
            _join_state,
        )
        return self.states

    def _invoke_result(self, instr, state: Tuple[AbsVal, ...]) -> AbsVal:
        name = instr.value
        arg_vals = [state[reg] for reg in instr.args]
        arg_tags: FrozenSet[str] = _EMPTY
        for tags, _ in arg_vals:
            arg_tags |= tags
        if not isinstance(name, str):
            return (arg_tags, None)
        if name == "android.env.get":
            env_name = arg_vals[0][1] if arg_vals else None
            return (frozenset({_env_tag(env_name)}), None)
        if name == "android.time.now":
            return (frozenset({_TAG_ENV_TIME}), None)
        if name == "java.rand.next":
            return (frozenset({_TAG_RANDOM}), None)
        if name in HASH_PRODUCERS:
            # Hashing *launders* taint into opacity: whatever went in,
            # only "this is a digest" comes out.
            return (frozenset({_TAG_HASH}), None)
        if name in DETECT_PRODUCERS:
            return (frozenset({_TAG_DETECT}), None)
        if name == "android.reflect.call":
            return (frozenset({_TAG_REFLECT}), None)
        if name in _EQUALITY_CALLS:
            # Keep the compared constant for guard-entropy estimation
            # when exactly one operand is a visible constant.
            consts = [v for _, v in arg_vals if v is not None]
            const = consts[0] if len(consts) == 1 else None
            return (arg_tags, const)
        if name in _STR_PROPAGATING:
            return (arg_tags, None)
        summary = self.summaries.get(name)
        if summary is not None:
            return (summary.return_tags | arg_tags, None)
        return (arg_tags, None)

    def _transfer(self, state: Tuple[AbsVal, ...], instr) -> Tuple[AbsVal, ...]:
        op = instr.op
        if instr.dst is None or op is Op.APUT:
            return state
        regs = list(state)
        if op is Op.CONST:
            regs[instr.dst] = (_EMPTY, instr.value)
        elif op is Op.MOVE:
            regs[instr.dst] = state[instr.a] if instr.a is not None else _BOTTOM
        elif op in BINOPS:
            a = state[instr.a] if instr.a is not None else _BOTTOM
            b = state[instr.b] if instr.b is not None else _BOTTOM
            regs[instr.dst] = (a[0] | b[0], None)
        elif op in LIT_BINOPS or op in (Op.NEG, Op.NOT, Op.ARRAY_LEN):
            a = state[instr.a] if instr.a is not None else _BOTTOM
            regs[instr.dst] = (a[0], None)
        elif op is Op.SGET:
            regs[instr.dst] = (frozenset({_TAG_FIELD}), None)
        elif op in (Op.IGET, Op.AGET):
            a = state[instr.a] if instr.a is not None else _BOTTOM
            regs[instr.dst] = (a[0], None)
        elif op is Op.INVOKE:
            regs[instr.dst] = self._invoke_result(instr, state)
        elif op in (Op.NEW_ARRAY, Op.NEW_INSTANCE):
            regs[instr.dst] = _BOTTOM
        else:
            regs[instr.dst] = _BOTTOM
        return tuple(regs)

    def return_tags(self) -> FrozenSet[str]:
        """Union of origin tags over every reachable RETURN value."""
        tags: FrozenSet[str] = _EMPTY
        for pc, instr in enumerate(self.method.instructions):
            if instr.op is not Op.RETURN:
                continue
            state = self.states[pc] if pc < len(self.states) else None
            if state is not None and instr.a is not None:
                tags |= state[instr.a][0]
        return tags


# ---------------------------------------------------------------------------
# Findings.
# ---------------------------------------------------------------------------


@dataclass
class HsoFinding:
    """One suspicious guarded region: a candidate hidden sensitive op."""

    method: str                      # qualified method name
    branch_pc: int                   # pc of the guarding branch
    kind: PredicateKind
    score: float
    sinks: Tuple[str, ...]           # sink names in the guarded region
    guarded_side: str                # "target" or "fallthrough"
    features: Dict[str, object] = field(default_factory=dict)

    @property
    def site(self) -> str:
        return f"{self.method}@{self.branch_pc}"

    def describe(self) -> str:
        sinks = ", ".join(self.sinks)
        return (
            f"{self.site}: {self.kind.value} guard ({self.guarded_side} side) "
            f"-> [{sinks}]  score={self.score:.2f}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "branch_pc": self.branch_pc,
            "kind": self.kind.value,
            "score": round(self.score, 3),
            "sinks": list(self.sinks),
            "guarded_side": self.guarded_side,
            "features": self.features,
        }

    def to_diagnostic(self):
        """Render as a lint Diagnostic (for SARIF / report plumbing)."""
        from repro.lint.diagnostics import Diagnostic, Severity

        return Diagnostic(
            rule="hso-finding",
            severity=Severity.WARNING,
            method=self.method,
            span=(self.branch_pc, self.branch_pc + 1),
            message=self.describe().split(": ", 1)[1],
        )


@dataclass
class TriggerScan:
    """Whole-program result of :func:`analyze_dex`."""

    findings: List[HsoFinding] = field(default_factory=list)
    #: Hash-opaque guards seen but not localizable (no visible sink).
    opaque_guards: List[str] = field(default_factory=list)
    methods_scanned: int = 0
    branches_classified: int = 0
    #: Methods the walker gave up on (malformed; verifier's problem).
    methods_skipped: int = 0

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.kind.value] = out.get(finding.kind.value, 0) + 1
        return out


# ---------------------------------------------------------------------------
# Whole-program analysis.
# ---------------------------------------------------------------------------

#: Fixpoint passes over the call graph for return-taint summaries; call
#: chains deeper than this stop propagating tags (never seen in corpus).
_SUMMARY_PASSES = 3


def _direct_sinks(method: DexMethod) -> List[Tuple[str, float]]:
    out: List[Tuple[str, float]] = []
    for instr in method.instructions:
        if instr.op is Op.THROW:
            out.append(("throw", THROW_WEIGHT))
        elif instr.op is Op.INVOKE and instr.value in SINK_WEIGHTS:
            out.append((instr.value, SINK_WEIGHTS[instr.value]))
    return out


def compute_summaries(
    dex: DexFile, roots: Optional[Iterable[str]] = None
) -> Dict[str, MethodSummary]:
    """Interprocedural fixpoint: return taint + reachable-sink weights.

    When callees reach equal sink weights, the first callee (in call
    order) to propagate its weight keeps the ``sink_name``.

    ``roots`` restricts the fixpoint to those methods and their
    transitive callees.  Every summary it returns equals the whole-dex
    one: a method's summary reads only its callees' summaries, so each
    pass computes the same values for the closure, in the same order.
    """
    methods = {m.qualified_name: m for m in dex.iter_methods()}
    callees: Dict[str, List[str]] = {
        name: list(dict.fromkeys(
            instr.value
            for instr in method.instructions
            if instr.op is Op.INVOKE and instr.value in methods
        ))
        for name, method in methods.items()
    }
    if roots is not None:
        closure: Set[str] = set()
        work = [name for name in roots if name in methods]
        while work:
            name = work.pop()
            if name not in closure:
                closure.add(name)
                work.extend(callees[name])
        methods = {name: m for name, m in methods.items() if name in closure}
    summaries = {name: MethodSummary() for name in methods}

    # Sink reachability (monotone, attenuated by depth).
    for name, method in methods.items():
        direct = _direct_sinks(method)
        if direct:
            sink_name, weight = max(direct, key=lambda item: item[1])
            summaries[name].sink_weight = weight
            summaries[name].sink_name = sink_name
    changed = True
    while changed:
        changed = False
        for name in methods:
            summary = summaries[name]
            for callee in callees[name]:
                callee_summary = summaries[callee]
                propagated = callee_summary.sink_weight * DEPTH_ATTENUATION
                if propagated > summary.sink_weight:
                    summary.sink_weight = propagated
                    summary.sink_name = callee_summary.sink_name
                    summary.sink_depth = callee_summary.sink_depth + 1
                    changed = True

    # Return taint (bounded passes; tag sets only grow).  A walk reads
    # only its callees' return tags, so a method whose callees' versions
    # (bumped on every growth) match its last walk would get the same
    # tags again -- or raise again -- and is skipped.
    versions = dict.fromkeys(methods, 0)
    walked: Dict[str, Tuple[int, ...]] = {}
    for _ in range(_SUMMARY_PASSES):
        changed = False
        for name, method in methods.items():
            inputs = tuple(versions[callee] for callee in callees[name])
            if walked.get(name) == inputs:
                continue
            walked[name] = inputs
            try:
                walker = _TaintWalker(method, summaries)
                walker.run()
                tags = walker.return_tags()
            except (AnalysisError, DexError, IndexError):
                continue
            if tags - summaries[name].return_tags:
                summaries[name].return_tags |= tags
                versions[name] += 1
                changed = True
        if not changed:
            break
    return summaries


def _classify(
    tags: FrozenSet[str], const: object
) -> PredicateKind:
    for tag, kind in _TAG_PRIORITY:
        if tag in tags:
            return kind
    if const is not None:
        return PredicateKind.CONST_COMPARISON
    if _TAG_FIELD in tags:
        return PredicateKind.FIELD_STATE
    return PredicateKind.OTHER


def _predicate_of(
    instr, state: Tuple[AbsVal, ...]
) -> Tuple[PredicateKind, object]:
    """Classify one conditional branch from the register state before it."""
    operands = [reg for reg in (instr.a, instr.b) if reg is not None]
    tags: FrozenSet[str] = _EMPTY
    consts: List[object] = []
    for reg in operands:
        reg_tags, reg_const = state[reg]
        tags |= reg_tags
        if reg_const is not None:
            consts.append(reg_const)
    const = consts[0] if len(consts) == 1 else None
    return _classify(tags, const), const


def _region_sinks(
    blocks: Iterable[BasicBlock],
    method: DexMethod,
    summaries: Dict[str, MethodSummary],
) -> List[Tuple[str, float]]:
    """Sinks inside ``blocks``, direct or through callee summaries."""
    out: List[Tuple[str, float]] = []
    for block in blocks:
        for pc in block.pcs():
            instr = method.instructions[pc]
            if instr.op is Op.THROW:
                out.append(("throw", THROW_WEIGHT))
            elif instr.op is Op.INVOKE and isinstance(instr.value, str):
                if instr.value in SINK_WEIGHTS:
                    out.append((instr.value, SINK_WEIGHTS[instr.value]))
                else:
                    summary = summaries.get(instr.value)
                    if summary is not None and summary.sink_weight > 0:
                        out.append((
                            f"via {instr.value}: {summary.sink_name}",
                            summary.sink_weight * DEPTH_ATTENUATION,
                        ))
    return out


def analyze_method(
    method: DexMethod,
    summaries: Optional[Dict[str, MethodSummary]] = None,
) -> Tuple[List[HsoFinding], List[str], int]:
    """Findings, opaque-guard sites and classified-branch count for one
    method."""
    summaries = summaries or {}
    findings: List[HsoFinding] = []
    opaque: List[str] = []
    cfg = build_cfg(method)
    cdep = control_dependence(cfg)
    walker = _TaintWalker(method, summaries)
    states = walker.run()
    labels = method.label_map()
    instructions = method.instructions
    reachable = cfg.reachable()
    classified = 0

    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        # The branch, if any, is the block's last real instruction.
        branch_pc: Optional[int] = None
        for pc in range(block.end - 1, block.start - 1, -1):
            if instructions[pc].op is not Op.LABEL:
                branch_pc = pc
                break
        if branch_pc is None:
            continue
        instr = instructions[branch_pc]
        if instr.op not in CONDITIONAL_BRANCHES:
            continue
        state = states[branch_pc]
        if state is None:
            continue
        kind, const = _predicate_of(instr, state)
        classified += 1
        entropy = guard_entropy_bits(const)
        entropy_norm = min(1.0, entropy / _FULL_ENTROPY_BITS)

        region = {
            index for index, controllers in cdep.items()
            if block.index in controllers
        }
        target_block = cfg.block_of(labels[instr.target]).index
        fall_block = (
            cfg.block_of(block.end).index if block.end < len(instructions) else None
        )
        sides: List[Tuple[str, Optional[int]]] = [
            ("target", target_block),
            ("fallthrough", fall_block),
        ]
        side_regions: Dict[str, Set[int]] = {}
        for side, start in sides:
            if start is None:
                side_regions[side] = set()
            else:
                side_regions[side] = region & cfg.reachable(start)

        emitted = False
        for side, start in sides:
            side_region = side_regions[side]
            if not side_region:
                continue
            sinks = _region_sinks(
                (cfg.blocks[i] for i in sorted(side_region)), method, summaries
            )
            if not sinks:
                continue
            other = side_regions["target" if side == "fallthrough" else "fallthrough"]
            other_size = len(other) if other else len(reachable) - len(side_region)
            asymmetry = 1.0
            if other_size > len(side_region):
                asymmetry += 0.5 * (1.0 - len(side_region) / other_size)
            sink_weight = max(weight for _, weight in sinks)
            score = (
                sink_weight
                * PREDICATE_FACTORS[kind]
                * (1.0 + entropy_norm)
                * asymmetry
            )
            findings.append(
                HsoFinding(
                    method=method.qualified_name,
                    branch_pc=branch_pc,
                    kind=kind,
                    score=score,
                    sinks=tuple(name for name, _ in sinks),
                    guarded_side=side,
                    features={
                        "entropy_bits": round(entropy, 1),
                        "guarded_blocks": len(side_region),
                        "asymmetry": round(asymmetry, 3),
                        "sink_weight": sink_weight,
                    },
                )
            )
            emitted = True
        if kind is PredicateKind.HASH_OPAQUE and not emitted:
            opaque.append(f"{method.qualified_name}@{branch_pc}")
    return findings, opaque, classified


def analyze_dex(dex: DexFile, min_score: float = 2.0) -> TriggerScan:
    """Run the whole-program HSO detector over ``dex``.

    Findings below ``min_score`` are dropped; survivors are ranked by
    descending score.
    """
    return scan_methods(dex.iter_methods(), compute_summaries(dex), min_score)


def scan_methods(
    methods: Iterable[DexMethod],
    summaries: Dict[str, MethodSummary],
    min_score: float = 2.0,
) -> TriggerScan:
    """:func:`analyze_dex` over ``methods`` only, given their summaries."""
    scan = TriggerScan()
    for method in methods:
        scan.methods_scanned += 1
        try:
            findings, opaque, classified = analyze_method(method, summaries)
        except (AnalysisError, DexError, IndexError):
            scan.methods_skipped += 1
            continue
        scan.branches_classified += classified
        scan.opaque_guards.extend(opaque)
        scan.findings.extend(f for f in findings if f.score >= min_score)
    scan.findings.sort(key=lambda f: (-f.score, f.method, f.branch_pc))
    return scan
