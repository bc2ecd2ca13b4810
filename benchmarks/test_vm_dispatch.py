"""VM dispatch-engine bench: table-dispatch vs the reference oracle.

The acceptance bar for the dispatch-table interpreter rebuild:

* the table engine interprets >= 2x the instructions/second of the
  pre-rebuild interpreter (kept verbatim as the test-only
  ``tests.vm_reference.ReferenceInterpreter``) on a fusion-heavy kernel;
* real protected-app play sessions are no slower than before
  (sessions/second ratio >= 1x -- in practice far better, since play
  time is interpreter-bound);
* Table 5 stays byte-stable: per-app ``cost_units`` (the overhead
  metric) are *equal* under both engines, along with every semantic
  observable (``table5_cost_parity``).

Results land in ``BENCH_vm_dispatch.json`` in the working directory so
CI can upload them as an artifact.  Run from the repository root
(``PYTHONPATH=src python -m pytest benchmarks/test_vm_dispatch.py``) so
the ``tests`` package that holds the oracle is importable.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import BombDroid, BombDroidConfig
from repro.corpus import build_app
from repro.dex import assemble
from repro.errors import MethodNotFound, VMError
from repro.fuzzing import DynodroidGenerator
from repro.vm import Runtime
from repro.vm.device import DevicePopulation
from tests.vm_reference import reference_runtime

from conftest import SCALE, print_table

BENCH_OUT = "BENCH_vm_dispatch.json"
KERNEL_ITERATIONS = max(2_000, int(20_000 * SCALE))
SESSION_APPS = 2
SESSIONS_PER_APP = 3
SESSION_EVENTS = max(100, int(250 * SCALE))
#: Builds a runtime on each side of the comparison.
RUNTIMES = {"reference": reference_runtime, "table": Runtime}

# A fusion-heavy interpreter kernel: fused CONST pairs, CONST+compare,
# CONST+zero-test, app-to-app INVOKE and 32-bit wrapped arithmetic.
KERNEL_APP = """
.class K
.field sink static 0
.method mix 1
    mul_lit r1, r0, 2654435761
    xor_lit r1, r1, 40503
    rem_lit r1, r1, 8191
    return r1
.end
.method work 1
    const r1, 0
@loop:
    sub_lit r0, r0, 1
    const r2, 3
    mul_lit r3, r0, 7
    rem_lit r3, r3, 13
    if_lt r3, r2, @small
    add r1, r1, r3
    goto @next
@small:
    invoke r4, K.mix, r0
    add r1, r1, r4
@next:
    if_nez r0, @loop
    return r1
.end
"""


def _time_kernel(engine: str):
    runtime = RUNTIMES[engine](assemble(KERNEL_APP), seed=0)
    method = runtime.find_method("K.work")
    started = time.perf_counter()
    result = runtime.session(budget=50_000_000).run(method, [KERNEL_ITERATIONS])
    elapsed = time.perf_counter() - started
    return result.value, result.instructions, elapsed, runtime.cost_units


def _play_sessions(apk, engine: str, seed: int):
    """Calibration-protocol play sessions pinned to one engine.

    Mirrors ``repro.vm.sessions.SessionEngine.play`` exactly (device
    draws, seeds, budgets) but parameterizes the interpreter so the
    reference loop can serve as the timing baseline.
    """
    dex = apk.dex()
    package = apk.install_view()
    population = DevicePopulation(seed=seed)
    per_session = []
    started = time.perf_counter()
    for index in range(SESSIONS_PER_APP):
        session_seed = seed * 100 + index
        runtime = RUNTIMES[engine](
            dex, device=population.sample(), package=package, seed=session_seed,
        )
        try:
            runtime.boot()
        except VMError:
            pass
        instructions = 0
        for event in DynodroidGenerator(dex, seed=session_seed).stream(
            SESSION_EVENTS
        ):
            ctx = runtime.session()
            try:
                ctx.dispatch(event)
            except (MethodNotFound, VMError):
                pass
            finally:
                instructions += ctx.consumed
        per_session.append({
            "instructions": instructions,
            "cost_units": runtime.cost_units,
            "detections": tuple(runtime.detections),
            "reports": tuple(runtime.reports),
            "bomb_counts": {k: dict(v) for k, v in runtime.bombs.counts.items()},
            "statics": {k: repr(v) for k, v in runtime.statics.items()},
        })
    elapsed = time.perf_counter() - started
    return per_session, elapsed


@pytest.fixture(scope="module")
def protected_corpus():
    from repro.crypto import RSAKeyPair

    key = RSAKeyPair.generate(seed=55)
    apps = []
    for index in range(SESSION_APPS):
        bundle = build_app(f"Vm{index}", category="Game", seed=index, scale=0.3)
        config = BombDroidConfig(seed=21 + index, profiling_events=200)
        apps.append(BombDroid(config).protect(bundle.apk, key).apk)
    return apps


@pytest.fixture(scope="module")
def measurements(protected_corpus):
    ref_value, ref_instr, ref_kernel_s, ref_cost = _time_kernel("reference")
    tab_value, tab_instr, tab_kernel_s, tab_cost = _time_kernel("table")

    ref_sessions, ref_sessions_s = [], 0.0
    tab_sessions, tab_sessions_s = [], 0.0
    for index, apk in enumerate(protected_corpus):
        sessions, elapsed = _play_sessions(apk, "reference", seed=index + 1)
        ref_sessions.append(sessions)
        ref_sessions_s += elapsed
        sessions, elapsed = _play_sessions(apk, "table", seed=index + 1)
        tab_sessions.append(sessions)
        tab_sessions_s += elapsed

    total_sessions = SESSION_APPS * SESSIONS_PER_APP
    cost_parity = ref_sessions == tab_sessions and ref_cost == tab_cost
    payload = {
        "kernel": {
            "instructions": ref_instr,
            "reference_seconds": round(ref_kernel_s, 4),
            "table_seconds": round(tab_kernel_s, 4),
            "reference_ips": round(ref_instr / ref_kernel_s, 1),
            "table_ips": round(tab_instr / tab_kernel_s, 1),
            "speedup": round(ref_kernel_s / tab_kernel_s, 3),
        },
        "sessions": {
            "apps": SESSION_APPS,
            "sessions_per_app": SESSIONS_PER_APP,
            "events_per_session": SESSION_EVENTS,
            "reference_seconds": round(ref_sessions_s, 4),
            "table_seconds": round(tab_sessions_s, 4),
            "reference_sps": round(total_sessions / ref_sessions_s, 3),
            "table_sps": round(total_sessions / tab_sessions_s, 3),
            "speedup": round(ref_sessions_s / tab_sessions_s, 3),
        },
        "aggregate_speedup": round(
            (ref_kernel_s + ref_sessions_s) / (tab_kernel_s + tab_sessions_s), 3
        ),
        "table5_cost_parity": cost_parity,
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    print_table(
        "vm dispatch engine",
        ["workload", "reference", "table", "speedup"],
        [
            ["kernel (instr/s)",
             f"{payload['kernel']['reference_ips']:,.0f}",
             f"{payload['kernel']['table_ips']:,.0f}",
             f"{payload['kernel']['speedup']:.2f}x"],
            ["sessions (sess/s)",
             f"{payload['sessions']['reference_sps']:.2f}",
             f"{payload['sessions']['table_sps']:.2f}",
             f"{payload['sessions']['speedup']:.2f}x"],
        ],
    )
    return {
        "payload": payload,
        "kernel_values": (ref_value, tab_value),
        "kernel_instr": (ref_instr, tab_instr),
        "kernel_cost": (ref_cost, tab_cost),
        "ref_sessions": ref_sessions,
        "tab_sessions": tab_sessions,
    }


def test_kernel_semantics_identical(measurements):
    ref_value, tab_value = measurements["kernel_values"]
    ref_instr, tab_instr = measurements["kernel_instr"]
    assert tab_value == ref_value
    assert tab_instr == ref_instr
    assert measurements["kernel_cost"][0] == measurements["kernel_cost"][1]


def test_kernel_speedup_at_least_2x(measurements):
    speedup = measurements["payload"]["kernel"]["speedup"]
    assert speedup >= 2.0, f"kernel speedup {speedup:.2f}x below the 2x bar"


def test_sessions_no_slower(measurements):
    speedup = measurements["payload"]["sessions"]["speedup"]
    assert speedup >= 1.0, f"sessions ran {speedup:.2f}x -- slower than before"


def test_aggregate_speedup_at_least_2x(measurements):
    aggregate = measurements["payload"]["aggregate_speedup"]
    assert aggregate >= 2.0, f"aggregate speedup {aggregate:.2f}x below the 2x bar"


def test_table5_cost_parity(measurements):
    """Every session observable -- cost_units above all -- is equal
    under both engines, so Table 5's overhead numbers are byte-stable
    across the interpreter rebuild."""
    assert measurements["ref_sessions"] == measurements["tab_sessions"]
    assert measurements["payload"]["table5_cost_parity"] is True


def test_bench_artifact_written(measurements):
    with open(BENCH_OUT, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["kernel"]["table_ips"] > payload["kernel"]["reference_ips"]
    assert payload["table5_cost_parity"] is True
    assert payload["sessions"]["apps"] == SESSION_APPS
