"""BombDroid configuration.

Defaults follow the paper's implementation choices: α = 0.25 of
candidate methods receive artificial QCs, the top 10% of methods by
invocation count are hot and excluded, inner-trigger satisfaction
probability is drawn from [0.1, 0.2], double-trigger bombs are on, and
loops are avoided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class DetectionMethod(enum.Enum):
    """Repackaging-detection payload flavor (Section 4.1)."""

    PUBLIC_KEY = "public_key"    # compare Kr (runtime) against Ko (baked in)
    CODE_DIGEST = "code_digest"  # compare MANIFEST.MF digest against stego-hidden Do
    CODE_SCAN = "code_scan"      # hash a protected method's instruction stream


class ResponseKind(enum.Enum):
    """What happens when repackaging is detected (Section 4.2)."""

    CRASH = "crash"              # throw -> process death
    ENDLESS_LOOP = "endless_loop"
    MEMORY_LEAK = "memory_leak"
    NULL_STATIC = "null_static"  # null out an app reference; crash later
    WARN = "warn"                # alert the user via a dialog
    REPORT = "report"            # notify the developer
    SLOWDOWN = "slowdown"        # busy-wait to degrade responsiveness


@dataclass
class BombDroidConfig:
    """Knobs for one protection run."""

    seed: int = 0

    #: Fraction of candidate methods that receive an artificial QC (α).
    alpha: float = 0.25

    #: Top fraction of methods (by invocation count) excluded as hot.
    hot_fraction: float = 0.10

    #: Number of profiling events for the hot-method/entropy pass.
    profiling_events: int = 10_000

    #: Inner-trigger satisfaction probability range [lo, hi].
    inner_probability: Tuple[float, float] = (0.1, 0.2)

    #: Insert the environment-sensitive inner trigger (double-trigger
    #: bombs, Section 6).  Disable for the single-trigger ablation.
    double_trigger: bool = True

    #: Weave original body code into payloads where possible (Section 3.4).
    weave: bool = True

    #: Transform this fraction of remaining weavable QCs into bogus bombs.
    bogus_ratio: float = 0.15

    #: Avoid inserting bombs inside natural loops.
    avoid_loops: bool = True

    #: Skip hot methods entirely.  Disable for the overhead ablation.
    exclude_hot_methods: bool = True

    #: Cap on real bombs per method (overhead guard).
    max_bombs_per_method: int = 4

    #: Detection methods to rotate across bombs.
    detection_methods: Tuple[DetectionMethod, ...] = (DetectionMethod.PUBLIC_KEY,)

    #: Responses to rotate across bombs.
    responses: Tuple[ResponseKind, ...] = (
        ResponseKind.CRASH,
        ResponseKind.WARN,
        ResponseKind.REPORT,
        ResponseKind.SLOWDOWN,
    )

    #: Strategic muting (the paper's Section 10 future work): once one
    #: bomb has detected repackaging, the rest stop running detection,
    #: so an attacker probing their repackaged build sees a single bomb
    #: instead of mapping the whole minefield.
    mute_after_detection: bool = False

    #: strings.xml key under which the stego carrier is stored.
    stego_key: str = "app_tagline"

    #: Hidden digest fragment length in bytes (Section 4.1 notes a
    #: partial digest suffices).
    stego_digest_bytes: int = 8

    #: ARMAND-style bomb mesh (repro.core.mesh).  Opt-in: when off, the
    #: protection pipeline draws the exact same rng stream and emits
    #: byte-identical output as before the mesh existed, keeping the
    #: Table 2/3/5 numbers and the artifact cache stable.
    mesh: bool = False

    #: Cross-reference topology over real bombs: "ring" links each bomb
    #: to its successors on a shuffled cycle; "k_regular" draws
    #: ``mesh_degree`` random distinct peers per bomb.
    mesh_topology: str = "ring"

    #: Shape-guard out-degree per bomb (both topologies).
    mesh_degree: int = 1

    #: Morph bomb prologues through the per-app shape library (mesh
    #: runs only).
    mesh_morph_prologues: bool = True

    #: Anti-analysis probes OR-combined into inner triggers (mesh runs
    #: only); drawn per bomb from this pool.
    mesh_probe_kinds: Tuple[str, ...] = ("debugger", "hooks")

    #: Draw delayed/probabilistic response plans (mesh runs only).
    mesh_delayed_responses: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in [0, 1)")
        lo, hi = self.inner_probability
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("inner_probability must satisfy 0 < lo <= hi <= 1")
        if not self.detection_methods:
            raise ValueError("at least one detection method is required")
        if not self.responses:
            raise ValueError("at least one response kind is required")
        if self.mesh_topology not in ("ring", "k_regular"):
            raise ValueError("mesh_topology must be 'ring' or 'k_regular'")
        if self.mesh_degree < 1:
            raise ValueError("mesh_degree must be >= 1")
        if self.mesh:
            unknown = set(self.mesh_probe_kinds) - {"debugger", "hooks"}
            if unknown:
                raise ValueError(f"unknown probe kind(s): {sorted(unknown)}")
