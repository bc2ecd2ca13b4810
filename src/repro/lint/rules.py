"""Stealth lint rules: does the protected app leak what the paper hides?

Each rule inspects the *protected* app the way an adversary (or a
post-instrumentation regression) would, and cross-checks it against the
instrumentation report when one is available.  Rules are registered in
:data:`RULES` and run by :func:`repro.lint.engine.run_lint`.

Rule catalog (paper anchors in parentheses):

======================  =====================================================
``leaked-trigger-const`` the plaintext trigger constant ``c`` survives in
                        the method after bomb injection (§3.2: "the constant
                        value c, which works as the key, is removed")
``bomb-in-loop``        a bomb prologue sits inside a natural loop (§7.2's
                        placement rule; wrecks the overhead budget)
``live-set-mismatch``   registers packed into the payload array disagree
                        with the registers unpacked afterwards or with the
                        liveness result recorded at weave time (§3.4)
``low-entropy-qc``      an artificial QC tests a field whose profiled
                        unique-value count is below the Figure 3 threshold
``text-search-surface`` plaintext detection APIs findable by the
                        text-search adversary (§2.1 / attacks/text_search)
``weak-salt``           two bombs share one salt, collapsing their key
                        domains (§3.2: per-bomb random salt)
``hso-localizable``     our own static trigger detector (Difuzer role,
                        :mod:`repro.analysis.triggers`) can localize a
                        bomb's payload -- the stealth claim is void
======================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TYPE_CHECKING,
    Tuple,
)

from repro.analysis.defs import constant_in_block
from repro.analysis.loops import instructions_in_loops
from repro.dex.model import DexFile, DexMethod
from repro.dex.opcodes import Op, TERMINATORS
from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids repro.core import
    from repro.lint.engine import LintContext

#: Framework calls that must never appear in plaintext in the main dex:
#: finding one is exactly what defeats the defense in the text-search
#: attack (the detection logic is supposed to live only inside encrypted
#: payloads).
PLAINTEXT_DETECTION_APIS = (
    "android.pm.get_public_key",
    "android.pm.get_manifest_digest",
    "android.pm.get_method_hash",
    "bomb.stego_extract",
)

#: Substrings an attacker greps disassembly for (attacks/text_search.py).
SUSPICIOUS_NAME_FRAGMENTS = (
    "get_public_key",
    "get_manifest_digest",
    "get_method_hash",
)


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    severity: Severity
    paper_ref: str
    description: str
    check: Callable[["LintContext"], Iterable[Diagnostic]]


RULES: Dict[str, Rule] = {}


def rule(rule_id: str, severity: Severity, paper_ref: str, description: str):
    """Register a check function under ``rule_id``."""

    def decorator(fn: Callable[["LintContext"], Iterable[Diagnostic]]):
        RULES[rule_id] = Rule(
            id=rule_id,
            severity=severity,
            paper_ref=paper_ref,
            description=description,
            check=fn,
        )
        return fn

    return decorator


# ---------------------------------------------------------------------------
# Bomb-site recovery.  The Listing-3 prologue has a rigid shape, so the
# lint engine can re-derive each site's materials (salt, id, packed
# register slots) straight from the protected bytecode.
# ---------------------------------------------------------------------------


@dataclass
class BombSite:
    """One recovered bomb invocation inside a protected method."""

    method: DexMethod
    hash_pc: int                     # pc of the ``bomb.hash`` INVOKE
    var_reg: Optional[int] = None    # register holding the tested X
    salt_hex: Optional[str] = None
    bomb_id: Optional[str] = None
    load_run_pc: Optional[int] = None
    declared_len: Optional[int] = None       # array-length constant (r + 2)
    packed_stores: Dict[int, int] = field(default_factory=dict)  # slot -> reg
    packed_loads: Dict[int, int] = field(default_factory=dict)   # slot -> reg

    @property
    def packed_count(self) -> Optional[int]:
        if self.declared_len is None:
            return None
        return self.declared_len - 2


def _canonical(value, aliases: Optional[Dict[str, str]]):
    """Resolve an invoke symbol through the app's alias table (mesh
    ALIASED prologues route ``bomb.*`` through per-app names)."""
    if aliases and isinstance(value, str):
        return aliases.get(value, value)
    return value


def _recover_site(
    method: DexMethod, hash_pc: int, aliases: Optional[Dict[str, str]] = None
) -> BombSite:
    site = BombSite(method=method, hash_pc=hash_pc)
    instructions = method.instructions
    invoke = instructions[hash_pc]
    if len(invoke.args) == 3:
        var_reg, salt_reg, id_reg = invoke.args
        site.var_reg = var_reg
        salt = constant_in_block(method, hash_pc, salt_reg)
        if salt is not None and isinstance(salt[1], str):
            site.salt_hex = salt[1]
        bomb_id = constant_in_block(method, hash_pc, id_reg)
        if bomb_id is not None and isinstance(bomb_id[1], str):
            site.bomb_id = bomb_id[1]

    # Find this site's load_run (stop if another site starts first).
    array_reg: Optional[int] = None
    for pc in range(hash_pc + 1, len(instructions)):
        instr = instructions[pc]
        if instr.op is not Op.INVOKE:
            continue
        name = _canonical(instr.value, aliases)
        if name == "bomb.hash":
            break
        if name == "bomb.load_run" and len(instr.args) == 4:
            site.load_run_pc = pc
            array_reg = instr.args[2]
            break
    if site.load_run_pc is None or array_reg is None:
        return site

    # Walk back to the NEW_ARRAY, reading the declared length and the
    # slot -> register packing (const idx; aput reg, arr, idx pairs).
    for pc in range(site.load_run_pc - 1, hash_pc, -1):
        instr = instructions[pc]
        if instr.op is Op.NEW_ARRAY and instr.dst == array_reg:
            length = constant_in_block(method, pc, instr.a)
            if length is not None and isinstance(length[1], int):
                site.declared_len = length[1]
            break
    for pc in range(hash_pc + 1, site.load_run_pc):
        instr = instructions[pc]
        if instr.op is Op.APUT and instr.dst == array_reg:
            index = constant_in_block(method, pc, instr.b)
            if index is not None and isinstance(index[1], int):
                site.packed_stores[index[1]] = instr.a

    # Walk forward over the unpack sequence (aget reg, result, idx).
    result_reg = instructions[site.load_run_pc].dst
    count = site.packed_count
    for pc in range(site.load_run_pc + 1, len(instructions)):
        instr = instructions[pc]
        if instr.op is Op.INVOKE and _canonical(instr.value, aliases) in (
            "bomb.hash",
            "bomb.load_run",
        ):
            break
        if instr.op in (Op.RETURN, Op.RETURN_VOID, Op.THROW):
            # The dispatch tail (ret_void / label / aget rv / ret) still
            # follows; keep scanning until the next site instead.
            continue
        if instr.op is Op.AGET and instr.a == result_reg:
            index = constant_in_block(method, pc, instr.b)
            if index is None or not isinstance(index[1], int):
                continue
            if count is not None and index[1] >= count:
                continue  # control / return-value slots, not live state
            site.packed_loads[index[1]] = instr.dst
    return site


def bomb_sites(
    dex: DexFile, aliases: Optional[Dict[str, str]] = None
) -> List[BombSite]:
    """Every recoverable bomb site in ``dex``, in method/pc order.

    ``aliases`` (``alias -> canonical``) lets the linter see through a
    meshed app's per-app alias symbols; pass the protection pipeline's
    table, or derive one from an installed APK's resources with
    :func:`repro.vm.aliases.alias_table_from_resources`.
    """
    sites: List[BombSite] = []
    for method in dex.iter_methods():
        for pc, instr in enumerate(method.instructions):
            if instr.op is Op.INVOKE and _canonical(instr.value, aliases) == "bomb.hash":
                sites.append(_recover_site(method, pc, aliases))
    return sites


# ---------------------------------------------------------------------------
# The rules.
# ---------------------------------------------------------------------------


@rule(
    "leaked-trigger-const",
    Severity.ERROR,
    "§3.2",
    "plaintext trigger constant c survives after bomb injection",
)
def check_leaked_trigger_const(ctx: "LintContext") -> Iterator[Diagnostic]:
    if ctx.report is None:
        return
    spans = _site_spans(ctx)
    for bomb in ctx.report.bombs:
        if bomb.const_value is None:
            continue
        try:
            method = ctx.dex.get_method(bomb.method)
        except Exception:
            continue
        emitted = spans.get(method.qualified_name, ())
        for pc, instr in enumerate(method.instructions):
            if instr.op is not Op.CONST:
                continue
            if any(start <= pc < stop for start, stop in emitted):
                continue  # the bomb's own prologue/dispatch, not app code
            value = instr.value
            if type(value) is not type(bomb.const_value) or value != bomb.const_value:
                continue
            if bomb.const_erased and _feeds_comparison(method, pc, instr.dst):
                yield Diagnostic(
                    rule="leaked-trigger-const",
                    severity=Severity.ERROR,
                    method=method.qualified_name,
                    span=(pc, pc + 1),
                    message=(
                        f"trigger constant {bomb.const_value!r} of bomb "
                        f"{bomb.bomb_id} was erased at weave time but is "
                        f"back in the bytecode"
                    ),
                )
            elif isinstance(value, str):
                # Surviving string constants are the grep-able surface a
                # HARVESTER-style attacker keys on; int literals are too
                # common to flag when legitimately still consumed.
                yield Diagnostic(
                    rule="leaked-trigger-const",
                    severity=Severity.WARNING,
                    method=method.qualified_name,
                    span=(pc, pc + 1),
                    message=(
                        f"trigger string {bomb.const_value!r} of bomb "
                        f"{bomb.bomb_id} is still text-searchable in the method"
                    ),
                )


def _site_spans(ctx: "LintContext") -> Dict[str, List[Tuple[int, int]]]:
    """Per-method pc ranges occupied by emitted bomb code.

    A span runs from the ``bomb.hash`` INVOKE to the no-match join label
    (the target of the prologue's ``IF_EQZ``), covering the dispatch
    tail -- whose control-slot compares legitimately use small int
    literals that may collide with a trigger constant.
    """
    spans: Dict[str, List[Tuple[int, int]]] = {}
    for site in ctx.sites():
        instructions = site.method.instructions
        labels = site.method.label_map()
        end = site.load_run_pc if site.load_run_pc is not None else site.hash_pc
        for pc in range(site.hash_pc + 1, len(instructions)):
            instr = instructions[pc]
            if instr.op is Op.IF_EQZ and instr.target in labels:
                end = max(end, labels[instr.target])
                break
        spans.setdefault(site.method.qualified_name, []).append(
            (site.hash_pc, end + 1)
        )
    return spans


def _feeds_comparison(method: DexMethod, pc: int, reg: Optional[int]) -> bool:
    """Whether the value defined at ``pc`` reaches an equality test.

    A trigger constant is only "back" when it reproduces the qualified
    condition's shape -- feeding an ``IF_EQ``/``IF_NE``/``CMP`` or a
    ``java.str.*`` comparison.  A mere value collision (the same literal
    used as an array index or loop bound) is not a leak.
    """
    if reg is None:
        return False
    for cursor in range(pc + 1, len(method.instructions)):
        instr = method.instructions[cursor]
        if instr.op is Op.LABEL:
            return False
        if instr.op in (Op.IF_EQ, Op.IF_NE, Op.CMP) and reg in (instr.a, instr.b):
            return True
        if (
            instr.op is Op.INVOKE
            and isinstance(instr.value, str)
            and instr.value.startswith("java.str.")
            and reg in instr.args
        ):
            return True
        if reg in instr.writes() or instr.op in TERMINATORS:
            return False
    return False


@rule(
    "bomb-in-loop",
    Severity.ERROR,
    "§7.2",
    "bomb prologue placed inside a natural loop",
)
def check_bomb_in_loop(ctx: "LintContext") -> Iterator[Diagnostic]:
    for method, sites in ctx.sites_by_method():
        try:
            forbidden = instructions_in_loops(method)
        except Exception:
            continue  # malformed method; the verifier reports it
        for site in sites:
            if site.hash_pc in forbidden:
                yield Diagnostic(
                    rule="bomb-in-loop",
                    severity=Severity.ERROR,
                    method=method.qualified_name,
                    span=(site.hash_pc, site.hash_pc + 1),
                    message=(
                        f"bomb {site.bomb_id or '?'} evaluates its hash inside "
                        f"a natural loop (placement rule violated)"
                    ),
                )


@rule(
    "live-set-mismatch",
    Severity.ERROR,
    "§3.4",
    "packed payload registers disagree with the liveness result",
)
def check_live_set_mismatch(ctx: "LintContext") -> Iterator[Diagnostic]:
    recorded: Dict[str, Tuple[int, ...]] = {}
    if ctx.report is not None:
        recorded = {bomb.bomb_id: bomb.packed_regs for bomb in ctx.report.bombs}
    for site in ctx.sites():
        if site.load_run_pc is None:
            continue
        span = (site.hash_pc, site.load_run_pc + 1)
        count = site.packed_count
        if count is None:
            continue  # array length untraceable; nothing sound to compare
        if sorted(site.packed_stores) != list(range(count)):
            yield Diagnostic(
                rule="live-set-mismatch",
                severity=Severity.ERROR,
                method=site.method.qualified_name,
                span=span,
                message=(
                    f"bomb {site.bomb_id or '?'} declares {count} live slots "
                    f"but packs slots {sorted(site.packed_stores)}"
                ),
            )
            continue
        if site.packed_stores != site.packed_loads:
            yield Diagnostic(
                rule="live-set-mismatch",
                severity=Severity.ERROR,
                method=site.method.qualified_name,
                span=span,
                message=(
                    f"bomb {site.bomb_id or '?'} packs registers "
                    f"{site.packed_stores} but unpacks {site.packed_loads}"
                ),
            )
            continue
        expected = recorded.get(site.bomb_id or "")
        if expected is not None:
            actual = tuple(site.packed_stores[i] for i in sorted(site.packed_stores))
            if actual != tuple(expected):
                yield Diagnostic(
                    rule="live-set-mismatch",
                    severity=Severity.ERROR,
                    method=site.method.qualified_name,
                    span=span,
                    message=(
                        f"bomb {site.bomb_id} packs {actual} but liveness "
                        f"analysis recorded {tuple(expected)} at weave time"
                    ),
                )


@rule(
    "low-entropy-qc",
    Severity.WARNING,
    "§7.2 / Fig. 3",
    "artificial QC field below the profiled entropy threshold",
)
def check_low_entropy_qc(ctx: "LintContext") -> Iterator[Diagnostic]:
    if ctx.field_entropy is None:
        return
    for site in ctx.sites():
        if site.var_reg is None:
            continue
        field_name = _sget_source(site.method, site.hash_pc, site.var_reg)
        if field_name is None:
            continue
        unique = ctx.field_entropy.get(field_name)
        if unique is not None and unique < ctx.min_qc_entropy:
            yield Diagnostic(
                rule="low-entropy-qc",
                severity=Severity.WARNING,
                method=site.method.qualified_name,
                span=(site.hash_pc, site.hash_pc + 1),
                message=(
                    f"bomb {site.bomb_id or '?'} tests field {field_name!r} "
                    f"with only {unique} profiled unique value(s) "
                    f"(threshold {ctx.min_qc_entropy}); the outer trigger "
                    f"fires too predictably"
                ),
            )


def _sget_source(method: DexMethod, pc: int, reg: int) -> Optional[str]:
    """Field name when ``reg`` at ``pc`` was defined by an in-block SGET."""
    cursor = pc - 1
    while cursor >= 0:
        instr = method.instructions[cursor]
        if instr.op is Op.LABEL:
            return None
        if reg in instr.writes():
            if instr.op is Op.SGET and isinstance(instr.value, str):
                return instr.value
            return None
        cursor -= 1
    return None


@rule(
    "text-search-surface",
    Severity.ERROR,
    "§2.1",
    "plaintext detection API findable by the text-search adversary",
)
def check_text_search_surface(ctx: "LintContext") -> Iterator[Diagnostic]:
    plaintext = set(PLAINTEXT_DETECTION_APIS)
    for method in ctx.dex.iter_methods():
        for pc, instr in enumerate(method.instructions):
            if instr.op is Op.INVOKE and instr.value in plaintext:
                yield Diagnostic(
                    rule="text-search-surface",
                    severity=Severity.ERROR,
                    method=method.qualified_name,
                    span=(pc, pc + 1),
                    message=(
                        f"detection API {instr.value!r} invoked in plaintext; "
                        f"a text search finds and removes it"
                    ),
                )
            elif instr.op is Op.CONST and isinstance(instr.value, str):
                for fragment in SUSPICIOUS_NAME_FRAGMENTS:
                    if fragment in instr.value:
                        yield Diagnostic(
                            rule="text-search-surface",
                            severity=Severity.ERROR,
                            method=method.qualified_name,
                            span=(pc, pc + 1),
                            message=(
                                f"string constant leaks detection API name "
                                f"{fragment!r} to a text search"
                            ),
                        )
                        break


@rule(
    "weak-salt",
    Severity.ERROR,
    "§3.2",
    "salt reuse across bombs collapses their key domains",
)
def check_weak_salt(ctx: "LintContext") -> Iterator[Diagnostic]:
    by_salt: Dict[str, List[str]] = {}
    if ctx.report is not None:
        for bomb in ctx.report.bombs:
            by_salt.setdefault(bomb.salt_hex, []).append(bomb.bomb_id)
    else:
        for site in ctx.sites():
            if site.salt_hex is not None:
                by_salt.setdefault(site.salt_hex, []).append(
                    site.bomb_id or f"{site.method.qualified_name}@{site.hash_pc}"
                )
    for salt_hex, bombs in sorted(by_salt.items()):
        if len(bombs) > 1:
            yield Diagnostic(
                rule="weak-salt",
                severity=Severity.ERROR,
                method=None,
                message=(
                    f"salt {salt_hex} is shared by bombs {sorted(bombs)}; "
                    f"cracking one trigger cracks them all"
                ),
            )


#: A trigger-detector finding within this many pcs *before* a bomb's
#: ``bomb.hash`` still localizes the bomb: the surrounding qualified
#: condition's branch guards the whole prologue.
_HSO_GUARD_WINDOW = 12


@rule(
    "hso-localizable",
    Severity.ERROR,
    "§5 / Difuzer",
    "our own static trigger detector can localize a bomb's payload",
)
def check_hso_localizable(ctx: "LintContext") -> Iterator[Diagnostic]:
    """Run the in-house HSO detector against the protected app.

    BombDroid's stealth claim is precisely that an interprocedural
    control-dependence + taint pass cannot attach a sensitive operation
    to the encrypted triggers.  If a finding lands inside (or on the
    guard of) a recovered bomb site, the protected app fails its own
    strongest static adversary and must not ship.

    Only findings in a site's host method can count, so only the hosts
    are scanned, over the summaries of their callee closure; the
    findings are exactly the whole-dex scan's findings in those methods.
    """
    sites = ctx.sites()
    if not sites:
        return  # nothing protected, nothing to localize
    # Imported at call time: triggers sits above the dex model only,
    # but keeping lint import-light mirrors the engine's verifier import.
    from repro.analysis.triggers import compute_summaries, scan_methods

    hosts = {site.method.qualified_name: site.method for site in sites}
    scan = scan_methods(hosts.values(), compute_summaries(ctx.dex, roots=hosts))
    for finding in scan.findings:
        for site in sites:
            if finding.method != site.method.qualified_name:
                continue
            end = site.load_run_pc if site.load_run_pc is not None else site.hash_pc
            if site.hash_pc - _HSO_GUARD_WINDOW <= finding.branch_pc <= end:
                yield Diagnostic(
                    rule="hso-localizable",
                    severity=Severity.ERROR,
                    method=finding.method,
                    span=(finding.branch_pc, finding.branch_pc + 1),
                    message=(
                        f"bomb {site.bomb_id or '?'} is localizable by static "
                        f"trigger analysis: {finding.kind.value} guard with "
                        f"sinks {list(finding.sinks)} "
                        f"(score {finding.score:.1f})"
                    ),
                )
                break
