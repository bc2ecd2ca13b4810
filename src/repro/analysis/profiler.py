"""Hot-method profiling (the Dynodroid + Traceview step, Section 7.1).

BombDroid feeds ~10,000 random events to the app, logs per-method
invocation counts, marks the top 10% most-invoked methods *hot*, and
instruments only the remaining *candidate* methods -- the main lever
behind the ~2.6% overhead result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.errors import VMError
from repro.vm.interpreter import CountingTracer


@dataclass
class HotMethodProfile:
    """Invocation counts plus the hot/candidate split."""

    invocation_counts: Dict[str, int]
    hot_methods: Set[str]
    candidate_methods: List[str]
    events_played: int = 0


def profile_hot_methods(
    runtime,
    events: Iterable,
    top_fraction: float = 0.10,
    event_budget: int = 50_000,
    on_event=None,
) -> HotMethodProfile:
    """Play ``events`` against ``runtime`` and split hot vs candidate.

    Methods never invoked during profiling count as cold (0 invocations).
    The top ``ceil(n * top_fraction)`` of the ``n`` methods *by
    invocation count* are hot, so ``top_fraction=0.0`` marks none; ties
    at the boundary go to the alphabetically first names.  Crashing
    events are tolerated -- random streams do hit guard rails.
    ``on_event(index, runtime)`` fires after each event; the
    field-entropy profiler samples through it.
    """
    tracer = CountingTracer()
    runtime.add_tracer(tracer)
    played = 0
    try:
        for event in events:
            try:
                runtime.session(event_budget).dispatch(event)
            except VMError:
                pass
            played += 1
            if on_event is not None:
                on_event(played, runtime)
    finally:
        runtime.remove_tracer(tracer)

    app_methods = [m.qualified_name for m in runtime.app_dex.iter_methods()]
    counts = {name: tracer.invocations.get(name, 0) for name in app_methods}

    hot_count = math.ceil(len(app_methods) * top_fraction)
    by_heat = sorted(app_methods, key=lambda name: (-counts[name], name))
    hot = {name for name in by_heat[:hot_count] if counts[name] > 0}
    candidates = [name for name in by_heat if name not in hot]
    candidates.sort()
    return HotMethodProfile(
        invocation_counts=counts,
        hot_methods=hot,
        candidate_methods=candidates,
        events_played=played,
    )
