"""First-class execution sessions and the batched play-session engine.

Historically every execution entry point threaded a *mutable budget
list* (``budget: List[int]``) through the interpreter, the framework
and back -- an implementation detail promoted to an API.  This module
replaces that plumbing:

:class:`ExecutionContext`
    One execution scope: a budget, optional extra tracers, an optional
    containment-policy override.  Created by ``Runtime.session(...)``.
    Works as a context manager (tracers/policy attach on entry, detach
    on exit) and offers measured entry points -- :meth:`invoke`,
    :meth:`run`, :meth:`dispatch` -- that return a
    :class:`SessionResult` instead of a bare value.

:class:`SessionResult`
    Return value plus the things callers previously re-derived by
    diffing runtime state: instructions consumed, cost units, budget
    remaining, and the bomb-registry events ("trips") recorded during
    the call.

:class:`SessionEngine`
    Batched *real* play sessions -- boot, event stream, crash handling
    -- replicating the exact per-session protocol of
    ``OutcomeModel.calibrate`` (same seeds, same device draws, same
    budgets) so fleet calibration and opt-in real-session fleets share
    one engine instead of each reimplementing the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import fault_point
from repro.errors import MethodNotFound, VMError
from repro.vm.events import Event, handler_name_for

#: Distinguishes "no policy override" from "override with None"
#: (= legacy crash-through semantics) in ExecutionContext.
_UNSET = object()


@dataclass(frozen=True)
class SessionResult:
    """What one measured execution did."""

    value: object              #: the method's return value
    instructions: int          #: instructions interpreted during the call
    cost: int                  #: cost units accrued (Table 5 metric)
    remaining: int             #: budget left in the context afterwards
    trips: tuple               #: BombEvents recorded during the call

    def trip_kinds(self) -> Tuple[str, ...]:
        return tuple(event.kind for event in self.trips)


class ExecutionContext:
    """One execution scope: budget cell + tracers + policy override.

    The budget is still a shared mutable cell under the hood (nested
    frames and payload sub-budgets charge the same counter, exactly as
    before) but callers never see the list -- they read
    :attr:`consumed` / :attr:`remaining` and get per-call numbers from
    :class:`SessionResult`.

    Entering the context (``with`` or any measured call) registers the
    context's tracers with the runtime and, when a ``policy`` override
    was given, swaps the runtime's containment policy and gives it a
    fresh circuit breaker; exiting restores both.  Entry is reentrant,
    so nesting measured calls inside a ``with`` block attaches once.
    """

    __slots__ = (
        "runtime", "budget", "_initial", "_tracers", "_policy",
        "_entered", "_saved",
    )

    def __init__(self, runtime, budget: Optional[int] = None, tracers=(), policy=_UNSET):
        self.runtime = runtime
        cell = [budget if budget is not None else runtime.default_budget]
        self.budget = cell
        self._initial = cell[0]
        self._tracers = tuple(tracers)
        self._policy = policy
        self._entered = 0
        self._saved = None

    # -- budget accounting ------------------------------------------------

    @property
    def consumed(self) -> int:
        """Instructions charged to this context so far.

        The interpreter decrements before the exhaustion check, so the
        cell rests at -1 after a BudgetExhausted; clamping makes
        ``consumed`` equal the instructions actually interpreted.
        """
        return self._initial - max(self.budget[0], 0)

    @property
    def remaining(self) -> int:
        return max(self.budget[0], 0)

    # -- attach / detach --------------------------------------------------

    def __enter__(self) -> "ExecutionContext":
        if self._entered == 0:
            self._attach()
        self._entered += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._entered -= 1
        if self._entered == 0:
            self._detach()
        return False

    def _attach(self) -> None:
        runtime = self.runtime
        for tracer in self._tracers:
            runtime.add_tracer(tracer)
        if self._policy is not _UNSET:
            from repro.vm.containment import CircuitBreaker

            policy = self._policy
            self._saved = (runtime.containment, runtime.breaker)
            runtime.containment = policy
            runtime.breaker = CircuitBreaker(
                policy.max_consecutive_failures if policy else 0
            )

    def _detach(self) -> None:
        runtime = self.runtime
        for tracer in self._tracers:
            runtime.remove_tracer(tracer)
        if self._saved is not None:
            runtime.containment, runtime.breaker = self._saved
            self._saved = None

    # -- measured entry points --------------------------------------------

    def _measure(self, fn) -> SessionResult:
        runtime = self.runtime
        with self:
            cost_before = runtime.cost_units
            consumed_before = self.consumed
            events_before = len(runtime.bombs.events)
            value = fn()
            return SessionResult(
                value=value,
                instructions=self.consumed - consumed_before,
                cost=runtime.cost_units - cost_before,
                remaining=self.remaining,
                trips=tuple(runtime.bombs.events[events_before:]),
            )

    def run(self, method, args=()) -> SessionResult:
        """Execute a :class:`DexMethod` under this context's budget."""
        runtime = self.runtime
        return self._measure(
            lambda: runtime.interpreter.execute(method, list(args), self)
        )

    def invoke(self, qualified_name: str, args=()) -> SessionResult:
        """Invoke a loaded method by name (the session-API entry point)."""
        runtime = self.runtime
        method = runtime.find_method(qualified_name)
        if method is None:
            raise MethodNotFound(qualified_name)

        def go():
            tracer = runtime.tracer
            if tracer is not None:
                tracer.on_invoke(qualified_name, list(args))
            return runtime.interpreter.execute(method, list(args), self)

        return self._measure(go)

    def dispatch(self, event: Event) -> SessionResult:
        """Deliver one UI event to its handler, advancing the clock."""
        runtime = self.runtime
        handler = f"{event.target_class}.{handler_name_for(event.kind)}"
        if runtime.find_method(handler) is None:
            raise MethodNotFound(handler)
        fault_point("vm.clock", device=runtime.device)
        runtime.device.advance(Event.DURATION)
        return self.invoke(handler, list(event.args))

    def boot(self) -> List[SessionResult]:
        """Run every class's zero-arg ``main`` entry (app start)."""
        runtime = self.runtime
        results = []
        with self:
            for name in sorted(runtime._methods):
                if name.endswith(".main") and runtime._methods[name].params == 0:
                    results.append(self.invoke(name))
        return results


# ---------------------------------------------------------------------------
# Batched play sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlayOutcome:
    """Everything one real interpreted play session observed."""

    index: int                 #: session index within the batch
    seed: int                  #: runtime/generator seed the session used
    events: int                #: UI events delivered (incl. wasted/crashed)
    wasted: int                #: events with no handler in the app
    crashes: int               #: VMError-terminated dispatches
    instructions: int          #: instructions interpreted across the session
    cost: int                  #: cost units accrued (Table 5 metric)
    reports: Tuple[str, ...]   #: developer reports the app emitted
    detections: Tuple[str, ...]  #: bomb ids that recorded ``detected``
    alerts: int                #: "alert" UI effects (bad-experience signal)
    bomb_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    clock: float = 0.0         #: device clock at session end

    @property
    def reported(self) -> bool:
        return bool(self.reports)

    @property
    def bad_experience(self) -> bool:
        return bool(self.detections) or self.alerts > 0


class SessionEngine:
    """Drives batches of *real* interpreted play sessions.

    One engine holds the decoded app (dex + install view) so per-session
    cost is just a fresh :class:`Runtime` over shared method objects --
    whose compiled bodies (``method._compiled``) are shared too, which
    is what makes thousands of sessions per second possible.

    The per-session protocol is byte-compatible with what
    ``OutcomeModel.calibrate`` always did: device drawn from a seeded
    :class:`DevicePopulation`, runtime seeded ``seed * 100 + index``,
    boot with VM errors swallowed, then a seeded Dynodroid event stream
    where handlerless events are wasted and crashes are counted but do
    not end the session.
    """

    def __init__(
        self,
        apk=None,
        *,
        dex=None,
        package=None,
        seed: int = 0,
        events: int = 350,
        budget: Optional[int] = None,
    ) -> None:
        if dex is None:
            if apk is None:
                raise ValueError("SessionEngine needs an apk or a dex")
            dex = apk.dex()
        if package is None and apk is not None:
            package = apk.install_view()
        self.dex = dex
        self.package = package
        self.seed = seed
        self.events = events
        self.budget = budget

    def play_one(
        self, index: int, device=None, events: Optional[int] = None
    ) -> PlayOutcome:
        """Run one full session; ``index`` keys the seeds.

        Without an explicit ``device`` the session draws the first
        sample of a population seeded ``seed * 100 + index`` -- a
        deterministic per-session device, independent of every other
        session (fleet-style use).  Calibration passes devices drawn
        in order from one shared population instead.
        """
        from repro.fuzzing.generators import DynodroidGenerator
        from repro.vm.device import DevicePopulation
        from repro.vm.runtime import Runtime

        session_seed = self.seed * 100 + index
        if device is None:
            device = DevicePopulation(seed=session_seed).sample()
        runtime = Runtime(
            self.dex, device=device, package=self.package, seed=session_seed,
        )
        event_count = self.events if events is None else events
        wasted = crashes = instructions = 0
        try:
            runtime.boot()
        except VMError:
            pass
        for event in DynodroidGenerator(self.dex, seed=session_seed).stream(
            event_count
        ):
            ctx = runtime.session(budget=self.budget)
            try:
                ctx.dispatch(event)
            except MethodNotFound:
                wasted += 1
            except VMError:
                crashes += 1
            finally:
                instructions += ctx.consumed
        return PlayOutcome(
            index=index,
            seed=session_seed,
            events=event_count,
            wasted=wasted,
            crashes=crashes,
            instructions=instructions,
            cost=runtime.cost_units,
            reports=tuple(runtime.reports),
            detections=tuple(runtime.detections),
            alerts=sum(1 for kind, _ in runtime.ui_effects if kind == "alert"),
            bomb_counts={k: dict(v) for k, v in runtime.bombs.counts.items()},
            clock=runtime.device.clock,
        )

    def play(self, sessions: int, events: Optional[int] = None) -> List[PlayOutcome]:
        """Run ``sessions`` calibration-style sessions.

        Devices are drawn *in order* from one population seeded with the
        engine seed -- the exact draw sequence calibration always used.
        """
        from repro.vm.device import DevicePopulation

        population = DevicePopulation(seed=self.seed)
        return [
            self.play_one(index, device=population.sample(), events=events)
            for index in range(sessions)
        ]
