"""The hot-method profiler counts frame entries exactly as a tracer would.

``profile_hot_methods`` sets the interpreter's ``invocation_counts``
instead of attaching a tracer.  :func:`traced_profile` is the tracer-based
profiler it replaced, kept as the oracle: both must log the same
app-method counts and split hot from candidate methods the same way, on
an app of every corpus category and on calls that crash on entry.
"""

import math

import pytest

from repro.analysis.profiler import HotMethodProfile, profile_hot_methods
from repro.corpus import CATEGORY_PROFILES, build_app
from repro.dex import assemble
from repro.errors import ReproError, VMError
from repro.fuzzing.generators import DynodroidGenerator
from repro.vm.device import DevicePopulation
from repro.vm.events import Event, EventKind
from repro.vm.interpreter import MAX_CALL_DEPTH, CountingTracer
from repro.vm.runtime import Runtime

CATEGORIES = [profile.name for profile in CATEGORY_PROFILES]


def traced_profile(runtime, events, top_fraction=0.10, event_budget=50_000):
    """The profiler as it was: a CountingTracer's ``on_invoke`` log."""
    tracer = CountingTracer()
    runtime.add_tracer(tracer)
    try:
        for event in events:
            try:
                runtime.session(event_budget).dispatch(event)
            except VMError:
                pass
    finally:
        runtime.remove_tracer(tracer)
    app_methods = [m.qualified_name for m in runtime.app_dex.iter_methods()]
    counts = {name: tracer.invocations.get(name, 0) for name in app_methods}
    hot_count = math.ceil(len(app_methods) * top_fraction)
    by_heat = sorted(app_methods, key=lambda name: (-counts[name], name))
    hot = {name for name in by_heat[:hot_count] if counts[name] > 0}
    return HotMethodProfile(
        invocation_counts=counts,
        hot_methods=hot,
        candidate_methods=sorted(name for name in by_heat if name not in hot),
        events_played=len(events),
    )


def booted(dex, seed=0, package=None):
    """A runtime set up the way ``BombDroid._profile`` sets one up."""
    runtime = Runtime(
        dex,
        device=DevicePopulation(seed=seed).sample(),
        package=package,
        seed=seed,
    )
    try:
        runtime.boot()
    except ReproError:
        pass
    return runtime


def assert_same_profile(new, old):
    assert new.invocation_counts == old.invocation_counts
    assert new.hot_methods == old.hot_methods
    assert new.candidate_methods == old.candidate_methods
    assert new.events_played == old.events_played


def tiers(dex):
    """(tier-2 function, warmth) per compiled method of ``dex``."""
    return {
        m.qualified_name: (m._compiled.tier2, m._compiled.warmth)
        for m in dex.iter_methods()
        if m._compiled is not None
    }


def profile_counting(dex, events, seed=0, package=None, **kw):
    """``profile_hot_methods`` on a booted runtime, checking that the
    counted frames ran tier-1 and left no warmth (boot's frames may)."""
    runtime = booted(dex, seed, package)
    before = tiers(dex)
    profile = profile_hot_methods(runtime, events, **kw)
    after = tiers(dex)
    assert len(after) > len(before), "profiling compiled no method"
    assert after == {**{name: (None, 0) for name in after}, **before}
    return profile


@pytest.mark.parametrize("category", CATEGORIES)
def test_counts_match_the_tracer_on_every_category(category):
    bundle = build_app("Prof", category=category, seed=5, scale=0.25)
    events = DynodroidGenerator(bundle.apk.dex(), seed=5).stream(300)
    package = bundle.apk.install_view()

    old = traced_profile(booted(bundle.apk.dex(), 5, package), events)
    new = profile_counting(bundle.apk.dex(), events, 5, package)

    assert_same_profile(new, old)
    assert new.hot_methods


CRASHING_APP = """
.class A
.method on_back 0
    invoke r0, A.rec
    return_void
.end
.method on_tick 1
    invoke r1, A.two, r0
    return_void
.end
.method on_key 1
    invoke r1, A.nope, r0
    return_void
.end
.method on_menu 1
    invoke r1, A.two, r0, r0
    return_void
.end
.method rec 0
    invoke r0, A.rec
    return_void
.end
.method two 2
    add r0, r0, r1
    return r0
.end
.method cold 0
    return_void
.end
"""


def test_counts_match_on_calls_that_crash_on_entry():
    # A.rec recurses past MAX_CALL_DEPTH, on_tick calls A.two with one
    # argument and on_key calls a name nothing defines: each event
    # crashes, yet every frame entry the tracer logged still counts.
    events = [
        Event(EventKind.BACK, "A"),
        Event(EventKind.TICK, "A", (1,)),
        Event(EventKind.KEY, "A", (2,)),
        Event(EventKind.MENU, "A", (3,)),
        Event(EventKind.BACK, "A"),
        Event(EventKind.TICK, "A", (4,)),
    ]
    old = traced_profile(booted(assemble(CRASHING_APP)), events, top_fraction=0.5)
    new = profile_counting(assemble(CRASHING_APP), events, top_fraction=0.5)

    assert_same_profile(new, old)
    assert new.invocation_counts["A.rec"] == 2 * (MAX_CALL_DEPTH + 1)
    assert new.invocation_counts["A.two"] == 3
    assert new.invocation_counts["A.cold"] == 0
    assert "A.nope" not in new.invocation_counts
    assert new.hot_methods == {"A.rec", "A.two", "A.on_back", "A.on_tick"}


PROBING_APP = """
.class A
.method on_back 0
    const r0, "debugger"
    invoke r1, bomb.probe, r0
    if_eqz r1, @done
    invoke r2, A.probed
@done:
    return_void
.end
.method probed 0
    return_void
.end
"""


def test_debugger_probe_reads_false_while_profiling():
    # No tracer is attached while profiling, so a bomb's debugger probe
    # sees what it sees on a user's device.  The tracer-based profiler
    # tripped it on every event.
    events = [Event(EventKind.BACK, "A")] * 3
    old = traced_profile(booted(assemble(PROBING_APP)), events)
    new = profile_hot_methods(booted(assemble(PROBING_APP)), events)

    assert old.invocation_counts == {"A.on_back": 3, "A.probed": 3}
    assert new.invocation_counts == {"A.on_back": 3, "A.probed": 0}


def test_counting_stops_when_profiling_ends():
    runtime = booted(assemble(CRASHING_APP))
    profile_hot_methods(runtime, [Event(EventKind.MENU, "A", (1,))])
    assert runtime.interpreter.invocation_counts is None
