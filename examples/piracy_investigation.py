#!/usr/bin/env python3
"""Developer-side piracy investigation.

The paper's intro scenario: a dishonest developer unpacks your app,
swaps the author info, injects adware and resells it.  This example
shows the decentralized detection pipeline from the *honest developer's*
desk: users' devices detect the repackaging, REPORT responses travel
home as signed reports, the report server identifies the pirate's
signing key, and the market pulls that pirate's listing.

Run:  python examples/piracy_investigation.py
"""

import math

from repro import BombDroid, BombDroidConfig, build_named_app, repackage
from repro.core.config import DetectionMethod, ResponseKind
from repro.crypto import RSAKeyPair
from repro.errors import VMError
from repro.fuzzing import DynodroidGenerator
from repro.repack import RepackOptions
from repro.reporting import AggregatedVerdict, ReportClient, ReportServer, TakedownPolicy
from repro.userside import Market
from repro.vm import DevicePopulation, Runtime


def main() -> None:
    bundle = build_named_app("Calendar")
    config = BombDroidConfig(
        seed=11,
        profiling_events=1500,
        # Bias responses toward REPORT so evidence reaches the developer.
        responses=(ResponseKind.REPORT, ResponseKind.WARN, ResponseKind.CRASH),
        detection_methods=(DetectionMethod.PUBLIC_KEY, DetectionMethod.CODE_DIGEST),
    )
    protected, report = BombDroid(config).protect(bundle.apk, bundle.developer_key)
    print(f"shipped {bundle.name} with {report.total_injected} bombs")

    # Two different pirates repackage the app independently and list
    # their copies on the market.
    pirate_a = RSAKeyPair.generate(seed=901)
    pirate_b = RSAKeyPair.generate(seed=902)
    pirated_a = repackage(protected, pirate_a, RepackOptions(new_author="free-apps-4u"))
    pirated_b = repackage(protected, pirate_b, RepackOptions(new_author="apkmirror-clone"))
    market = Market(seed=5)
    listing_a = market.publish(f"{bundle.name} (free!)", pirated_a)
    listing_b = market.publish(f"{bundle.name} Pro", pirated_b)

    # Device clocks are spread over a week, and the server checks report
    # freshness and its takedown window against the timestamps devices
    # claim: both are unbounded here, so every honest report counts.
    server = ReportServer(
        shards=1,
        max_report_age=math.inf,
        policy=TakedownPolicy(distinct_devices=3, window_seconds=math.inf),
    )
    server.register_app(bundle.name, bundle.developer_key.public.fingerprint().hex())
    attestation = RSAKeyPair.generate(seed=77)

    # Users download from different shady sources.
    population = DevicePopulation(seed=5)
    sessions = 16
    for index in range(sessions):
        pirated, listing = (pirated_a, listing_a) if index % 3 else (pirated_b, listing_b)
        device_id = f"device-{index:02d}"
        runtime = Runtime(
            pirated.dex(),
            device=population.sample(),
            package=pirated.install_view(),
            seed=index,
            report_client=ReportClient(
                server.submit, attestation, device_id=device_id, seed=index
            ),
        )
        try:
            runtime.boot()
        except VMError:
            pass
        for event in DynodroidGenerator(pirated.dex(), seed=index).stream(700):
            try:
                runtime.dispatch(event)
            except VMError:
                pass
        # Crashes and warnings make for a one-star review.
        bad_experience = bool(runtime.detections) or any(
            kind == "alert" for kind, _ in runtime.ui_effects
        )
        market.rate(listing, 1 if bad_experience else 5)

    server.process()
    print(f"\n{sessions} user sessions:")
    for name, listing in (("pirate A", listing_a), ("pirate B", listing_b)):
        print(f"  store rating ({name}): {listing.average_rating:.1f} / 5.0")
    print(f"  signed reports accepted: {server.metrics.counter('reporting.accepted').value}")
    verdict, offender = server.verdict(bundle.name)
    print(f"  verdict: {verdict.value}")
    if verdict is AggregatedVerdict.TAKEDOWN:
        owner = "pirate A" if offender == pirate_a.public.fingerprint().hex() else "pirate B"
        print(f"  takedown request against key {offender[:20]}... ({owner})")
    for listing in market.process_server_takedowns(server):
        print(f"  market pulled {listing.app_name!r}")


if __name__ == "__main__":
    main()
