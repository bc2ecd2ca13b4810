"""Fuzzing sessions: play a generator against an installed app.

A session owns the app lifecycle the way a fuzzing harness does: boot
the app, inject events, restart the process after a crash (state is
reset, the clock is not), and keep aggregate bomb statistics across
restarts -- the attacker observes the union of everything any run
triggered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.dex.model import DexFile
from repro.errors import MethodNotFound, VMError
from repro.fuzzing.generators import EventGenerator
from repro.vm.device import DeviceProfile
from repro.vm.events import Event
from repro.vm.interpreter import CoverageTracer
from repro.vm.runtime import InstalledPackage, Runtime


@dataclass
class SessionResult:
    """Outcome of one fuzzing session."""

    events_played: int
    wasted_events: int
    crashes: int
    coverage: float
    #: union across restarts of bomb ids per lifecycle kind
    bombs_evaluated: Set[str] = field(default_factory=set)
    bombs_outer_satisfied: Set[str] = field(default_factory=set)
    bombs_inner_met: Set[str] = field(default_factory=set)
    bombs_detected: Set[str] = field(default_factory=set)
    bombs_responded: Set[str] = field(default_factory=set)
    bombs_mesh_tripped: Set[str] = field(default_factory=set)
    #: (clock_seconds, bomb_id) of first full trigger per bomb
    trigger_times: Dict[str, float] = field(default_factory=dict)
    #: sampled (elapsed_seconds, cumulative_fully_triggered) curve
    trigger_curve: List[tuple] = field(default_factory=list)


class FuzzSession:
    """Drives one app on one device with one generator."""

    def __init__(
        self,
        dex: DexFile,
        generator: EventGenerator,
        device: DeviceProfile,
        package: Optional[InstalledPackage] = None,
        seed: int = 0,
        event_budget: int = 200_000,
    ) -> None:
        self._dex = dex
        self._generator = generator
        self._device = device
        self._package = package
        self._seed = seed
        self._event_budget = event_budget
        self._runtime: Optional[Runtime] = None
        self._coverage = CoverageTracer()
        self._result = SessionResult(events_played=0, wasted_events=0, crashes=0, coverage=0.0)

    @property
    def runtime(self) -> Runtime:
        if self._runtime is None:
            self._runtime = self._fresh_runtime()
        return self._runtime

    def _fresh_runtime(self) -> Runtime:
        runtime = Runtime(
            self._dex,
            device=self._device,
            package=self._package,
            seed=self._seed,
            tracers=[self._coverage],
        )
        try:
            runtime.boot(budget=self._event_budget)
        except VMError:
            self._result.crashes += 1
        return runtime

    def run_for(
        self,
        duration_seconds: float,
        sample_every: float = 60.0,
        on_sample=None,
    ) -> SessionResult:
        """Inject events until ``duration_seconds`` of simulated time pass.

        ``on_sample(runtime, elapsed)`` is called every ``sample_every``
        simulated seconds -- the field-entropy profiler hooks in here.
        """
        runtime = self.runtime
        start_clock = runtime.device.clock
        next_sample = sample_every
        iterator = self._generator.events()

        while runtime.device.clock - start_clock < duration_seconds:
            event = next(iterator)
            before_cov = len(self._coverage.visited)
            try:
                runtime.session(self._event_budget).dispatch(event)
                self._result.events_played += 1
            except MethodNotFound:
                # Blind injection (Monkey) on a class with no handler.
                runtime.device.advance(Event.DURATION)
                self._result.wasted_events += 1
            except VMError:
                self._result.events_played += 1
                self._result.crashes += 1
                self._harvest(runtime)
                clock = runtime.device.clock
                self._runtime = runtime = self._fresh_runtime()
                runtime.device.clock = clock
            self._generator.notify_coverage(event, len(self._coverage.visited) - before_cov)

            elapsed = runtime.device.clock - start_clock
            if elapsed >= next_sample:
                self._harvest(runtime)
                self._result.trigger_curve.append(
                    (elapsed, len(self._result.trigger_times))
                )
                if on_sample is not None:
                    on_sample(runtime, elapsed)
                next_sample += sample_every

        self._harvest(runtime)
        self._result.coverage = self._coverage.instruction_coverage_of(self._dex)
        return self._result

    def _harvest(self, runtime: Runtime) -> None:
        """Fold the runtime's bomb registry into the session result."""
        result = self._result
        registry = runtime.bombs
        result.bombs_evaluated |= registry.bombs_with("evaluated")
        result.bombs_outer_satisfied |= registry.bombs_with("outer_satisfied")
        result.bombs_inner_met |= registry.bombs_with("inner_met")
        result.bombs_detected |= registry.bombs_with("detected")
        result.bombs_responded |= registry.bombs_with("responded")
        result.bombs_mesh_tripped |= registry.bombs_with("mesh_tripped")
        for (bomb_id, kind), clock in registry.first_by_bomb.items():
            if kind == "inner_met" and bomb_id not in result.trigger_times:
                result.trigger_times[bomb_id] = clock
