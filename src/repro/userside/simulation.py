"""User play sessions and the Table 3 experiment.

A :class:`PlaySession` is one user on one sampled device playing the
(repackaged) app.  ``simulate_first_triggers`` repeats the paper's
Section 8.2 protocol: play until the first bomb *fully* triggers
(outer + inner conditions), record the elapsed time, fifty runs per
app with varied device configurations, 60-minute timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apk.package import Apk
from repro.errors import MethodNotFound, VMError
from repro.fuzzing.generators import DynodroidGenerator
from repro.vm.device import DevicePopulation
from repro.vm.events import Event
from repro.vm.runtime import Runtime


class PlaySession:
    """One user's session with the app on one device."""

    def __init__(self, apk: Apk, device, seed: int = 0) -> None:
        self._apk = apk
        self._device = device
        self._seed = seed
        # Parse and install once; restarts reuse both (the DexFile is
        # immutable under execution, and the system's package snapshot
        # does not change between process restarts).
        self._dex = apk.dex()
        self._package = apk.install_view()
        self.runtime = Runtime(
            self._dex, device=device, package=self._package, seed=seed
        )
        self._generator = DynodroidGenerator(self._dex, seed=seed)
        try:
            self.runtime.boot()
        except VMError:
            pass

    def play_until_detection(self, timeout_seconds: float) -> Optional[float]:
        """Play; return elapsed seconds at the first full bomb trigger
        (``inner_met``), or None on timeout.

        Users keep using an app that crashed (they reopen it); state
        resets, the clock does not -- matching how the human testers of
        Section 8.2 measured wall-clock time to first trigger.
        """
        runtime = self.runtime
        start = runtime.device.clock
        iterator = self._generator.events()
        while runtime.device.clock - start < timeout_seconds:
            event = next(iterator)
            try:
                runtime.session().dispatch(event)
            except MethodNotFound:
                runtime.device.advance(Event.DURATION)
            except VMError:
                clock = runtime.device.clock
                detected = runtime.detections
                if detected:
                    # The crash *was* the response.
                    return clock - start
                self._restart(clock)
                runtime = self.runtime
            first = self.runtime.bombs.first_time_of("inner_met")
            if first is not None:
                return self.runtime.device.clock - start
        return None

    def _restart(self, clock: float) -> None:
        previous_bombs = self.runtime.bombs
        self.runtime = Runtime(
            self._dex,
            device=self._device,
            package=self._package,
            seed=self._seed,
        )
        # Carry the bomb history across restarts for measurement.
        self.runtime.bombs.merge_from(previous_bombs)
        try:
            self.runtime.boot()
        except VMError:
            pass


@dataclass
class FirstTriggerStats:
    """Table 3 row: time to trigger the first bomb."""

    app: str
    times: List[float] = field(default_factory=list)
    failures: int = 0

    @property
    def runs(self) -> int:
        return len(self.times) + self.failures

    @property
    def min_time(self) -> float:
        return min(self.times) if self.times else float("nan")

    @property
    def max_time(self) -> float:
        return max(self.times) if self.times else float("nan")

    @property
    def avg_time(self) -> float:
        return sum(self.times) / len(self.times) if self.times else float("nan")

    @property
    def success_ratio(self) -> str:
        return f"{len(self.times)}/{self.runs}"


def simulate_first_triggers(
    apk: Apk,
    app_name: str,
    runs: int = 50,
    timeout_seconds: float = 3600.0,
    population_seed: int = 0,
) -> FirstTriggerStats:
    """The Section 8.2 protocol for one app."""
    population = DevicePopulation(seed=population_seed)
    stats = FirstTriggerStats(app=app_name)
    for run in range(runs):
        device = population.sample()
        session = PlaySession(apk, device, seed=population_seed * 1000 + run)
        elapsed = session.play_until_detection(timeout_seconds)
        if elapsed is None:
            stats.failures += 1
        else:
            stats.times.append(elapsed)
    return stats
