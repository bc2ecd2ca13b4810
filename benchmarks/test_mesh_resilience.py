"""Mesh resilience: multi-pattern tamper response under attack.

The mesh PR's win condition, measured: on a meshed app no
single-pattern strip removes detection without corrupting the app, and
the upgraded multi-pattern (learned) stripper only wins by corrupting
the repackage.  Also guards the mesh's runtime price: the Table 5
overhead delta between meshed and unmeshed protection stays within two
percentage points.

Results land in ``BENCH_mesh_resilience.json`` so the mesh-resilience
CI job can upload them:

``detection_survival_rate``   fraction of seeds where the classic strip
                              left >= 1 armed bomb or corrupted the app
``corruption_on_strip_rate``  fraction of seeds where the learned strip
                              corrupted the repackage
``residual_detection_rate``   fraction of learned-strip repackages that
                              still produced detections or mesh trips
``overhead_delta``            mean meshed-vs-unmeshed protected cost
                              delta over the same event stream
"""

import json

from conftest import PROFILING_EVENTS, SCALE, print_table

from repro import BombDroid, BombDroidConfig, build_named_app, repackage
from repro.attacks import AdaptiveStripperAttack, DeletionAttack
from repro.core.config import DetectionMethod, ResponseKind
from repro.crypto import RSAKeyPair
from repro.errors import VMError
from repro.fuzzing import DynodroidGenerator
from repro.vm import DevicePopulation, Runtime

BENCH_OUT = "BENCH_mesh_resilience.json"
MESH_APPS = ("SWJournal", "AndroFish", "Hash Droid")
DIFF_EVENTS = max(300, int(800 * SCALE))
COST_EVENTS = max(600, int(2000 * SCALE))
OVERHEAD_DELTA_BUDGET = 0.02


def _config(mesh: bool) -> BombDroidConfig:
    return BombDroidConfig(
        seed=17,
        profiling_events=PROFILING_EVENTS,
        mesh=mesh,
        detection_methods=(
            DetectionMethod.PUBLIC_KEY,
            DetectionMethod.CODE_DIGEST,
            DetectionMethod.CODE_SCAN,
        ),
    )


def _cost(apk, seed: int) -> int:
    runtime = Runtime(
        apk.dex(),
        device=DevicePopulation(seed=seed).sample(),
        package=apk.install_view(),
        seed=seed,
    )
    try:
        runtime.boot()
    except VMError:
        pass
    for event in DynodroidGenerator(apk.dex(), seed=seed).stream(COST_EVENTS):
        try:
            runtime.session().dispatch(event)
        except VMError:
            pass
    return runtime.cost_units


def test_mesh_resilience(benchmark):
    attacker = RSAKeyPair.generate(seed=4040)
    rows = []
    survivals = []
    corruptions = []
    residuals = []
    deltas = []

    def run():
        for index, name in enumerate(MESH_APPS):
            bundle = build_named_app(name)
            unmeshed = BombDroid(_config(mesh=False)).protect(
                bundle.apk, bundle.developer_key
            )
            meshed = BombDroid(_config(mesh=True)).protect(
                bundle.apk, bundle.developer_key
            )

            classic = DeletionAttack(
                differential_events=DIFF_EVENTS, seed=30 + index
            ).run(
                repackage(meshed.apk, attacker), attacker, original=bundle.apk
            )
            survived = (
                classic.details["live_sites"] > 0 or classic.app_corrupted
            )
            survivals.append(survived)

            adaptive = AdaptiveStripperAttack(
                differential_events=DIFF_EVENTS, seed=30 + index
            ).run(
                repackage(meshed.apk, attacker), attacker, original=bundle.apk
            )
            corruptions.append(adaptive.app_corrupted)
            residuals.append(
                adaptive.details["residual_detections"] > 0
                or adaptive.details["residual_mesh_trips"] > 0
            )

            cost_plain = _cost(unmeshed.apk, seed=90 + index)
            cost_mesh = _cost(meshed.apk, seed=90 + index)
            delta = (cost_mesh - cost_plain) / cost_plain
            deltas.append(delta)

            rows.append(
                (
                    name,
                    "survived" if survived else "STRIPPED",
                    f"live={classic.details['live_sites']}",
                    "corrupted" if adaptive.app_corrupted else "CLEAN",
                    adaptive.details["residual_detections"]
                    + adaptive.details["residual_mesh_trips"],
                    f"{delta:+.2%}",
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Mesh resilience (classic strip / learned strip / overhead delta)",
        ["app", "classic strip", "armed bombs", "learned strip",
         "residual signals", "mesh overhead delta"],
        rows,
    )

    survival_rate = sum(survivals) / len(survivals)
    corruption_rate = sum(corruptions) / len(corruptions)
    residual_rate = sum(residuals) / len(residuals)
    mean_delta = sum(deltas) / len(deltas)
    payload = {
        "apps": list(MESH_APPS),
        "diff_events": DIFF_EVENTS,
        "cost_events": COST_EVENTS,
        "detection_survival_rate": survival_rate,
        "corruption_on_strip_rate": corruption_rate,
        "residual_detection_rate": residual_rate,
        "overhead_delta": round(mean_delta, 5),
        "overhead_delta_per_app": [round(d, 5) for d in deltas],
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {BENCH_OUT}: {payload}")

    # Win condition: for every seed, the single-pattern strip either
    # left a live bomb or broke the app.
    assert survival_rate == 1.0
    # The learned stripper disarms everything it can see, but only at
    # the price of a corrupted (unsellable) repackage.
    assert corruption_rate == 1.0
    # Mesh guards cost payload-side work only: the steady-state Table 5
    # overhead moves by at most two percentage points.
    assert abs(mean_delta) <= OVERHEAD_DELTA_BUDGET
