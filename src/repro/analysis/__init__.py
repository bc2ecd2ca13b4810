"""Static and dynamic analysis over the repro ISA.

Used by two parties:

* **BombDroid** (Step 2 of Fig. 1) -- CFG construction, loop detection
  (bombs are not inserted inside loops), qualified-condition discovery,
  hot-method profiling (Traceview role) and field-entropy profiling for
  artificial QCs;
* **the attacker** -- backward program slicing (HARVESTER role) and
  def-use analysis feed the attack suite.
"""

from repro.analysis.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.analysis.dominators import (
    control_dependence,
    controlled_blocks,
    dominators,
    immediate_dominators,
    immediate_postdominators,
    postdominators,
)
from repro.analysis.loops import natural_loops, instructions_in_loops
from repro.analysis.defs import constant_in_block
from repro.analysis.qualified_conditions import (
    QualifiedCondition,
    Strength,
    find_qualified_conditions,
)
from repro.analysis.regions import body_region, region_is_weavable
from repro.analysis.entropy import FieldValueProfiler, FieldHistory
from repro.analysis.profiler import HotMethodProfile, profile_hot_methods
from repro.analysis.slicing import backward_slice
from repro.analysis.verifier import (
    RegType,
    VERIFIER_RULES,
    verify_dex,
    verify_method,
)
from repro.analysis.triggers import (
    HsoFinding,
    PredicateKind,
    TriggerScan,
    analyze_dex,
    analyze_method,
)

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "control_dependence",
    "controlled_blocks",
    "dominators",
    "immediate_dominators",
    "immediate_postdominators",
    "postdominators",
    "natural_loops",
    "instructions_in_loops",
    "constant_in_block",
    "QualifiedCondition",
    "Strength",
    "find_qualified_conditions",
    "body_region",
    "region_is_weavable",
    "FieldValueProfiler",
    "FieldHistory",
    "HotMethodProfile",
    "profile_hot_methods",
    "backward_slice",
    "RegType",
    "VERIFIER_RULES",
    "verify_dex",
    "verify_method",
    "HsoFinding",
    "PredicateKind",
    "TriggerScan",
    "analyze_dex",
    "analyze_method",
]
