"""Execution sessions and the batched play-session engine.

:class:`ExecutionContext`
    One execution scope: a budget cell shared by every frame it runs
    (nested calls and payload sub-budgets charge the same counter).
    Created by ``Runtime.session(budget)``, the only way to run code:
    :meth:`~ExecutionContext.run`, :meth:`~ExecutionContext.invoke` and
    :meth:`~ExecutionContext.dispatch` each return a
    :class:`SessionResult`.

:class:`SessionResult`
    Return value plus what the call did: instructions consumed, cost
    units, budget remaining, and the bomb-registry events ("trips")
    recorded during the call.

:class:`SessionEngine`
    Batched *real* play sessions -- boot, event stream, crash handling
    -- replicating the exact per-session protocol of
    ``OutcomeModel.calibrate`` (same seeds, same device draws, same
    budgets) so calibration, real-session fleets, ``repro simulate`` and
    the adaptive stripper's residual check share one engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import fault_point
from repro.errors import MethodNotFound, VMError
from repro.vm.events import Event


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
    """One execution scope: a budget cell and the measured calls.

    The budget is a shared mutable cell (nested frames and payload
    sub-budgets charge the same counter), but callers never see it:
    they read :attr:`consumed` / :attr:`remaining` and get per-call
    numbers from :class:`SessionResult`.
    """

    __slots__ = ("runtime", "budget", "_initial")

    def __init__(self, runtime, budget: Optional[int] = None):
        self.runtime = runtime
        cell = [budget if budget is not None else runtime.default_budget]
        self.budget = cell
        self._initial = cell[0]

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

    def _execute(self, method, args, name: Optional[str] = None) -> SessionResult:
        """Run ``method`` under this budget; a ``name`` is reported to
        the tracer as an invocation first."""
        runtime = self.runtime
        cost_before = runtime.cost_units
        consumed_before = self.consumed
        events_before = len(runtime.bombs.events)
        if name is not None and runtime.tracer is not None:
            runtime.tracer.on_invoke(name, list(args))
        value = runtime.interpreter.execute(method, list(args), self)
        return SessionResult(
            value=value,
            instructions=self.consumed - consumed_before,
            cost=runtime.cost_units - cost_before,
            remaining=self.remaining,
            trips=tuple(runtime.bombs.events[events_before:]),
        )

    def run(self, method, args=()) -> SessionResult:
        """Execute a :class:`DexMethod` under this context's budget."""
        return self._execute(method, args)

    def invoke(self, qualified_name: str, args=()) -> SessionResult:
        """Invoke a loaded method by name."""
        method = self.runtime.find_method(qualified_name)
        if method is None:
            raise MethodNotFound(qualified_name)
        return self._execute(method, args, qualified_name)

    def dispatch(self, event: Event) -> SessionResult:
        """Deliver one UI event to its handler, advancing the clock.

        A handlerless event raises :class:`MethodNotFound` before the
        clock moves; once the handler runs, a crash propagates to the
        caller but the clock has advanced either way.
        """
        runtime = self.runtime
        handler = event.handler
        method = runtime.find_method(handler)
        if method is None:
            raise MethodNotFound(handler)
        fault_point("vm.clock", device=runtime.device)
        runtime.device.advance(Event.DURATION)
        return self._execute(method, event.args, handler)


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
