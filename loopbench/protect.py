"""``protect``: the developer's compile path through ``protect_batch``.

The corpus is one app per category, the scales 0.25/0.5/0.75 dealt out
in turn over the categories.  Each pass builds the corpus (its set-up)
and protects it in one ``protect_batch`` call with ``workers=1`` (a
2-core shared host would otherwise measure pool start-up), the strict
gate on and no artifact cache.  A run measures as many whole passes as
fit in ``--seconds`` and reports medians over them, so a pass that ran
while the host was busy does not set the figures.

The corpus and the protection seed are fixed; the workload seed orders
the apps of each pass.  Drawing the apps (or the protection seed, which
places the bombs) per workload seed moved the cost of 24 apps from
19.5 s to 30.5 s over eight seeds, so the spread between runs would
measure the draw.  Every pass must give every app the same outcome and
bytes as the first pass did.

The strict gate rejects two corpus apps (VERIFICATION_FAILED on a
lint finding such as ``leaked-trigger-const``); the corpus keeps them.  A rejection is the
gate's answer, not a failed operation: it is fed to the output digest,
counted as ``core.gate_rejected`` in the traced run and printed on
stderr.  ``failed`` counts CRASHED apps.
"""

from __future__ import annotations

import hashlib
import random
import sys
from typing import Dict, List, Tuple

from repro.apk.io import apk_from_bytes, apk_to_bytes
from repro.core import BombDroidConfig
from repro.corpus import CATEGORY_PROFILES, build_app
from repro.core.result import STAGES
from repro.errors import ReproError
from repro.pipeline import BatchJob, BatchOptions, BatchResult, OutcomeStatus, protect_batch

from common import Checks, Digest, HostSpeed, Stopwatch, derive_seed, median, should_stop

CATEGORIES = tuple(profile.name for profile in CATEGORY_PROFILES)
SCALES = (0.25, 0.5, 0.75)
PROFILING_EVENTS = 300
OPTIONS = BatchOptions(workers=1, strict=True)
#: Seed of the fixed corpus and of ``BombDroidConfig``.
CORPUS_SEED = 0


class Protect:
    def __init__(self, seed: int, checks: Checks) -> None:
        self.checks = checks
        self.config = BombDroidConfig(seed=CORPUS_SEED, profiling_events=PROFILING_EVENTS)
        self.rng = random.Random(derive_seed(seed, "protect"))
        #: name -> (status, sha1 of the protected bytes) from the first pass.
        self.first: Dict[str, Tuple[str, str]] = {}
        self.rejected = 0

    def build_corpus(self) -> List[BatchJob]:
        """The corpus, its apps in a seeded order."""
        jobs = []
        for slot, category in enumerate(CATEGORIES):
            bundle = build_app(
                f"Bench0x{slot}",
                category,
                seed=derive_seed(CORPUS_SEED, "protect", 0, slot),
                scale=SCALES[slot % len(SCALES)],
            )
            jobs.append(BatchJob.from_apk(bundle.name, bundle.apk, bundle.developer_key))
        self.rng.shuffle(jobs)
        return jobs

    def run_pass(self, digest: Digest) -> Tuple[float, Stopwatch, BatchResult]:
        """Set up and protect one batch; returns (setup s, the batch's
        stopwatch, result)."""
        with Stopwatch() as setup:
            jobs = self.build_corpus()
        with Stopwatch() as wall:
            batch = protect_batch(jobs, self.config, OPTIONS)
        self.check(jobs, batch, digest)
        return setup.seconds, wall, batch

    def check(self, jobs: List[BatchJob], batch: BatchResult, digest: Digest) -> None:
        """Every OK app round-trips through ``repro.apk.io`` and verifies
        against its developer key; the others are strict-gate rejections
        or crashes.  Each app's outcome repeats the first pass's."""
        expect = self.checks.expect
        expect(len(batch.outcomes) == len(jobs), "protect: batch lost apps")
        for job, outcome in zip(jobs, batch.outcomes):
            expect(outcome.name == job.name, f"protect: outcome order {outcome.name}")
            blob = b""
            if outcome.ok:
                blob = apk_to_bytes(outcome.result.apk)
                try:
                    back = apk_from_bytes(blob, job.name)
                    back.verify()
                    same = apk_to_bytes(back) == blob
                    signer = back.cert.public_key == job.developer_key.public
                except ReproError as exc:
                    same = signer = False
                    expect(False, f"protect: {job.name} does not reload: {exc}")
                expect(same, f"protect: {job.name} changes on an io round trip")
                expect(signer, f"protect: {job.name} not signed by its developer key")
            elif outcome.status is OutcomeStatus.VERIFICATION_FAILED:
                self.rejected += 1
            seen = (outcome.status.value, hashlib.sha1(blob).hexdigest())
            first = self.first.setdefault(outcome.name, seen)
            expect(seen == first, f"protect: {outcome.name} gave {seen}, first pass {first}")
            digest.feed(outcome.name, outcome.status.value, outcome.error_type, blob)

    # -- modes ----------------------------------------------------------------

    def measure(self, seconds: float) -> Dict[str, float]:
        setups: List[float] = []
        walls: List[float] = []
        rates: List[float] = []
        p50s: List[float] = []
        attempted = failed = 0
        digest = Digest()
        speed = HostSpeed()
        while not should_stop(sum(walls), walls, seconds):
            with Stopwatch() as unit:
                setup, wall, batch = self.run_pass(digest)
                scale = speed.step()
            setups.append(setup * scale)
            walls.append(unit.seconds)
            rates.append(len(batch.outcomes) / wall.cpu / scale)
            p50s.append(median([o.seconds for o in batch.outcomes]) * scale)
            attempted += len(batch.outcomes)
            failed += crashed(batch)
        self.report_rejected(attempted)
        return {
            "setup_s": median(setups),
            "throughput_per_cpu_s": median(rates),
            "latency_p50_ms": median(p50s) * 1e3,
            "attempted": attempted,
            "failed": failed,
            "reference_rate": median(speed.rates),
        }

    def fixed(self) -> Tuple[str, Dict[str, float], int, int]:
        """One pass: (digest, layer facts, attempted, failed)."""
        digest = Digest()
        _, wall, batch = self.run_pass(digest)
        self.report_rejected(len(batch.outcomes))
        facts = {f"core.{stage}_s": 0.0 for stage in STAGES}
        before = after = bombs = 0
        for outcome in batch.outcomes:
            if outcome.ok:
                report = outcome.result.report
                for stage, seconds in outcome.result.timings.items():
                    facts[f"core.{stage}_s"] += seconds
                before += report.instructions_before
                after += report.instructions_after
                bombs += report.total_injected
        facts["core.bombs"] = bombs
        facts["core.gate_rejected"] = self.rejected
        facts["core.code_growth_pct"] = (after / before - 1.0) * 100.0
        facts["pipeline.overhead_s"] = wall.seconds - sum(o.seconds for o in batch.outcomes)
        return digest.hexdigest(), facts, len(batch.outcomes), crashed(batch)

    def report_rejected(self, attempted: int) -> None:
        print(f"protect: strict gate rejected {self.rejected} of {attempted} apps",
              file=sys.stderr)


def crashed(batch: BatchResult) -> int:
    return len(batch.by_status(OutcomeStatus.CRASHED))
