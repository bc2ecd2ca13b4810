"""Bomb containment: graceful degradation when payload machinery fails.

A logic bomb is supposed to be invisible until tampering is proven.  A
corrupt ciphertext, a rotten payload blob or a class-load failure is
*not* proof of tampering -- crashing the host app over it would turn
the protection itself into a denial of service.  Containment draws a
boundary around bomb execution:

* decrypt / deserialize / class-load / interpretation failures inside a
  bomb are caught at the ``bomb.*`` framework boundary, recorded as
  ``payload_error`` events in the :class:`~repro.vm.runtime.BombRegistry`,
  and execution falls through to the original branch semantics (the
  control-slot protocol's fall-through), so the host keeps running;
* a per-bomb **circuit breaker** quarantines a bomb after K consecutive
  failures (``quarantined`` event); further firings skip the payload
  entirely (``payload_skipped``) until the app restarts;
* **deliberate responses are never contained**: a payload that recorded
  a ``responded`` marker before raising (crash / endless-loop
  responses) propagates exactly as without containment, so detection
  semantics and the paper's tables are unchanged.  This covers
  mesh-tripped tamper responses too: a cross-reference guard that finds
  a peer bomb tampered records ``mesh_tripped`` and ``responded`` and
  then raises -- the responded delta makes the crash deliberate, so the
  circuit breaker never quarantines a bomb for defending the mesh;
* ``strict`` mode re-raises contained failures as
  :class:`repro.errors.PayloadError` (with bomb id and fault site) for
  debugging.

Containment is opt-in per :class:`~repro.vm.runtime.Runtime`
(``Runtime(..., containment=ContainmentPolicy())``); without a policy
the legacy crash-through behaviour is preserved bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

#: Control-slot value meaning "fall through" (mirrors
#: repro.core.payloads.CONTROL_FALLTHROUGH; duplicated here so the VM
#: does not import the instrumentation layer).
CONTROL_FALLTHROUGH = 0


@dataclass
class ContainmentPolicy:
    """How a runtime handles bomb-infrastructure failures."""

    #: Consecutive payload failures before a bomb is quarantined.
    max_consecutive_failures: int = 3

    #: Instruction sub-budget for one payload run.  Keeps a payload that
    #: spins (corrupted control flow) from draining the host's budget;
    #: the instructions a payload does execute are still charged to the
    #: host budget.  Deliberate endless-loop responses exhaust this cap
    #: and re-raise (they record ``responded`` first).
    payload_budget: int = 250_000

    #: Re-raise contained failures as PayloadError (debugging).
    strict: bool = False


class CircuitBreaker:
    """Per-bomb consecutive-failure counter with quarantine."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._failures: Dict[str, int] = {}
        self.quarantined: Set[str] = set()

    def is_quarantined(self, bomb_id: str) -> bool:
        return bomb_id in self.quarantined

    def failure(self, bomb_id: str) -> bool:
        """Record one failure; True when this one trips the breaker."""
        count = self._failures.get(bomb_id, 0) + 1
        self._failures[bomb_id] = count
        if count >= self.threshold and bomb_id not in self.quarantined:
            self.quarantined.add(bomb_id)
            return True
        return False

    def success(self, bomb_id: str) -> None:
        """A clean payload run resets the bomb's consecutive count."""
        self._failures.pop(bomb_id, None)

    def consecutive_failures(self, bomb_id: str) -> int:
        return self._failures.get(bomb_id, 0)


def fall_through(register_array):
    """Make a payload register array request fall-through semantics.

    The caller's unpack loop then restores its registers unchanged and
    the control-slot dispatch resumes at the bomb's exit label -- the
    original branch semantics of the instrumented site.
    """
    if isinstance(register_array, list) and len(register_array) >= 2:
        register_array[-2] = CONTROL_FALLTHROUGH
    return register_array
