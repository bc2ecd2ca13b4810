#!/usr/bin/env python3
"""Quickstart: protect an app, pirate it, watch it defend itself.

Run:  python examples/quickstart.py
"""

from repro import BombDroid, BombDroidConfig, build_named_app, repackage
from repro.crypto import RSAKeyPair
from repro.errors import VMError
from repro.fuzzing import DynodroidGenerator
from repro.vm import DevicePopulation, Runtime


def main() -> None:
    # 1. An honest developer builds and signs an app.
    bundle = build_named_app("AndroFish")
    print(f"built {bundle.name}: {bundle.dex.instruction_count()} instructions, "
          f"{len(bundle.dex.classes)} classes")

    # 2. BombDroid laces it with cryptographically obfuscated logic bombs.
    protected, report = BombDroid(BombDroidConfig(seed=1, profiling_events=2000)).protect(
        bundle.apk, bundle.developer_key
    )
    print(report.summary())
    print(f"  size increase: {report.size_increase:.1%}")

    # 2b. The verifier + stealth lint confirm the surgery left a
    #     well-formed app that leaks none of the defense's secrets.
    from repro.lint import errors, run_lint

    diagnostics = run_lint(protected.dex(), report=report)
    if errors(diagnostics):
        raise SystemExit("\n".join(d.format() for d in errors(diagnostics)))
    print(f"lint: 0 errors across {sum(1 for _ in protected.dex().iter_methods())} "
          f"methods ({len(diagnostics)} advisory diagnostics)")

    # 3. The protected app behaves exactly like the original for real users.
    runtime = Runtime(protected.dex(), package=protected.install_view(), seed=7)
    runtime.boot()
    for event in DynodroidGenerator(protected.dex(), seed=7).stream(500):
        runtime.session().dispatch(event)
    print(f"genuine install: {len(runtime.detections)} detections "
          f"(must be 0), app state intact")

    # 4. A pirate repackages it: new icon, new author, injected adware,
    #    re-signed with their own key.
    pirate_key = RSAKeyPair.generate(seed=666)
    pirated = repackage(protected, pirate_key)
    print(f"pirated copy signed by {pirated.cert.fingerprint_hex()[:16]}... "
          f"(original: {protected.cert.fingerprint_hex()[:16]}...)")

    # 5. On user devices, bombs start going off.
    population = DevicePopulation(seed=3)
    detected_on = 0
    for index in range(10):
        user_runtime = Runtime(
            pirated.dex(),
            device=population.sample(),
            package=pirated.install_view(),
            seed=index,
        )
        try:
            user_runtime.boot()
        except VMError:
            pass
        for event in DynodroidGenerator(pirated.dex(), seed=index).stream(600):
            try:
                user_runtime.session().dispatch(event)
            except VMError:
                pass  # crash responses look like instability to the pirate's "customers"
        if user_runtime.detections:
            detected_on += 1
    print(f"repackaging detected on {detected_on}/10 simulated user devices")


if __name__ == "__main__":
    main()
