"""Whole-dex HSO rule with generator joins: the reference the strict gate is diffed against.

The ``hso-localizable`` lint rule scans only the bomb host methods,
over the summaries of their callee closure, and both dataflow joins
take identity shortcuts.  This oracle keeps the plain form of each:
every method of the dex is summarised and scanned, findings outside a
host are thrown away afterwards, and the joins build one fresh value
per register.  It also keeps a FIFO form of the shared forward
worklist solver (:func:`fifo_solver`), which the verifier ran before
it moved to :func:`repro.analysis.cfg.solve_forward`.  Test-only: it
is several times slower than the gate.
"""

import contextlib
from collections import deque
from typing import Dict, List
from unittest import mock

from repro.analysis import triggers, verifier
from repro.analysis.triggers import (
    DEPTH_ATTENUATION,
    MethodSummary,
    TriggerScan,
    _SUMMARY_PASSES,
    _TaintWalker,
    _direct_sinks,
    _join_val,
    analyze_method,
)
from repro.analysis.verifier import _join, verify_dex
from repro.dex.opcodes import Op
from repro.errors import AnalysisError, DexError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import LintContext
from repro.lint.rules import RULES, _HSO_GUARD_WINDOW


def reference_join_state(a, b):
    """Taint-state join, one ``_join_val`` per register."""
    return tuple(_join_val(x, y) for x, y in zip(a, b))


def reference_join_states(a, b):
    """Verifier-state join, one ``_join`` per register."""
    return tuple(_join(x, y) for x, y in zip(a, b))


@contextlib.contextmanager
def generator_joins():
    """Run the production walkers with the reference joins."""
    with mock.patch.object(triggers, "_join_state", reference_join_state), \
            mock.patch.object(verifier, "_join_states", reference_join_states):
        yield


def reference_solve_forward(instructions, successors, entry, transfer, join):
    """:func:`repro.analysis.cfg.solve_forward` with a FIFO worklist."""
    states = [None] * len(instructions)
    states[0] = entry
    work = deque([0])
    while work:
        pc = work.popleft()
        state = states[pc]
        instr = instructions[pc]
        after = state if instr.op is Op.LABEL else transfer(state, instr)
        for successor in successors[pc]:
            merged = (
                after
                if states[successor] is None
                else join(states[successor], after)
            )
            if merged != states[successor]:
                states[successor] = merged
                work.append(successor)
    return states


@contextlib.contextmanager
def fifo_solver():
    """Run the verifier and the HSO walker on the FIFO reference solver."""
    with mock.patch.object(triggers, "solve_forward", reference_solve_forward), \
            mock.patch.object(verifier, "solve_forward", reference_solve_forward):
        yield


def reference_summaries(dex) -> Dict[str, MethodSummary]:
    """The interprocedural fixpoint over every method of ``dex``.

    Callees are visited in first-call order, the tie rule the
    production fixpoint documents.
    """
    methods = {m.qualified_name: m for m in dex.iter_methods()}
    summaries = {name: MethodSummary() for name in methods}
    callees: Dict[str, List[str]] = {name: [] for name in methods}
    for name, method in methods.items():
        for instr in method.instructions:
            if instr.op is Op.INVOKE and instr.value in methods:
                if instr.value not in callees[name]:
                    callees[name].append(instr.value)

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

    for _ in range(_SUMMARY_PASSES):
        changed = False
        for name, method in methods.items():
            try:
                walker = _TaintWalker(method, summaries)
                walker.run()
                tags = walker.return_tags()
            except (AnalysisError, DexError, IndexError):
                continue
            if tags - summaries[name].return_tags:
                summaries[name].return_tags |= tags
                changed = True
        if not changed:
            break
    return summaries


def reference_analyze_dex(dex, min_score: float = 2.0) -> TriggerScan:
    """Every method of ``dex`` scanned, findings ranked by score."""
    summaries = reference_summaries(dex)
    scan = TriggerScan()
    for method in dex.iter_methods():
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


def reference_hso_localizable(ctx: LintContext):
    """``hso-localizable`` over a whole-dex scan."""
    sites = ctx.sites()
    if not sites:
        return
    scan = reference_analyze_dex(ctx.dex)
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


def reference_run_lint(dex, report=None, field_entropy=None, aliases=None):
    """``run_lint`` with every rule, the reference HSO rule and joins."""
    with generator_joins():
        diagnostics = verify_dex(dex)
        ctx = LintContext(
            dex=dex, report=report, field_entropy=field_entropy, aliases=aliases
        )
        for rule in RULES.values():
            if rule.id == "hso-localizable":
                diagnostics.extend(reference_hso_localizable(ctx))
            else:
                diagnostics.extend(rule.check(ctx))
    return diagnostics
