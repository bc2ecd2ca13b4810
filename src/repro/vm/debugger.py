"""A tracing debugger over the interpreter's observation hooks.

Models the attacker's dynamic tooling from Section 2.1's *Debugging*
attack: breakpoints, watchpoints on framework APIs ("hook critical
calls the repackaging detection code relies on ... for instance, hook
calls to getPublicKey") and on static fields, plus a bounded execution
trace to walk back from a symptom to the code that caused it.

Everything is implemented as a :class:`repro.vm.interpreter.Tracer`, so
it works on any runtime without modifying the app -- exactly the
position a debugger-wielding attacker is in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Set, Tuple

from repro.dex.model import DexMethod
from repro.dex.opcodes import Op
from repro.vm.interpreter import Tracer


@dataclass
class WatchHit:
    """One watchpoint firing."""

    api: str
    args_preview: str
    #: Most recent (method, pc) entries before the hit -- the "back
    #: trace" an attacker follows to the responsible code.
    trace_back: Tuple[Tuple[str, int], ...]

    @property
    def source_method(self) -> Optional[str]:
        return self.trace_back[-1][0] if self.trace_back else None


@dataclass
class StaticWriteHit:
    field: str
    method: str
    pc: int


class Debugger(Tracer):
    """Breakpoints + watchpoints + a bounded trace ring."""

    def __init__(self, trace_depth: int = 64) -> None:
        self._trace: Deque[Tuple[str, int]] = deque(maxlen=trace_depth)
        self._api_watches: Set[str] = set()
        self._static_watches: Set[str] = set()
        self._breakpoints: Set[Tuple[str, int]] = set()
        self.watch_hits: List[WatchHit] = []
        self.static_hits: List[StaticWriteHit] = []
        self.breakpoint_hits: List[Tuple[str, int]] = []
        self.instructions_seen = 0

    # -- configuration -----------------------------------------------------

    def watch_api(self, *names: str) -> "Debugger":
        self._api_watches.update(names)
        return self

    def watch_static(self, *fields: str) -> "Debugger":
        self._static_watches.update(fields)
        return self

    def set_breakpoint(self, method: str, pc: int) -> "Debugger":
        self._breakpoints.add((method, pc))
        return self

    # -- tracer hooks ----------------------------------------------------------

    def on_instr(self, method: DexMethod, pc: int, instr) -> None:
        self.instructions_seen += 1
        self._trace.append((method.qualified_name, pc))
        if (method.qualified_name, pc) in self._breakpoints:
            self.breakpoint_hits.append((method.qualified_name, pc))
        if (
            self._static_watches
            and instr.op is Op.SPUT
            and instr.value in self._static_watches
        ):
            self.static_hits.append(
                StaticWriteHit(field=instr.value, method=method.qualified_name, pc=pc)
            )

    def on_invoke(self, name: str, args: list) -> None:
        if name in self._api_watches:
            preview = ", ".join(repr(a)[:24] for a in args[:3])
            self.watch_hits.append(
                WatchHit(
                    api=name,
                    args_preview=preview,
                    trace_back=tuple(self._trace),
                )
            )

    # -- queries ------------------------------------------------------------------

    def hits_for(self, api: str) -> List[WatchHit]:
        return [hit for hit in self.watch_hits if hit.api == api]

    def source_methods(self, api: str) -> Set[str]:
        """Methods the attacker traces the watched call back to."""
        return {
            hit.source_method for hit in self.hits_for(api) if hit.source_method
        }

    def trace_tail(self, count: int = 10) -> List[Tuple[str, int]]:
        return list(self._trace)[-count:]
