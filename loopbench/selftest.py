"""Self-tests for the benchmark's correctness checks.

Each reference-model check must pass on the program's real output and
must fail once its expectation (or the output it judges) is perturbed;
otherwise a broken program could still read ``"correct": true``.

    python3 loopbench/selftest.py        # exit 0 when every check behaves
"""

from __future__ import annotations

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import load_program  # noqa: E402

load_program()

from common import Checks, Digest, scratch_dir  # noqa: E402

RESULTS = []


def verdict(name: str, run) -> None:
    """``run(checks)`` must leave failures iff ``name`` says perturbed."""
    checks = Checks()
    run(checks)
    perturbed = name.startswith("perturbed")
    ok = bool(checks.failures) == perturbed
    RESULTS.append(ok)
    detail = checks.failures[0] if checks.failures else "no failures"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def protect_checks() -> None:
    from repro.crypto import RSAKeyPair
    from repro.pipeline import protect_batch
    from protect import OPTIONS, Protect

    bench = Protect(1, Checks())
    jobs = bench.build_corpus()
    batch = protect_batch(jobs, bench.config, OPTIONS)
    stranger = RSAKeyPair.generate(seed=12345)
    wrong_key = [dataclasses.replace(job, developer_key=stranger) for job in jobs]
    other_pass = {job.name: ("ok", "0" * 40) for job in jobs}

    def run(jobs_seen, checks, first=None):
        bench.checks = checks
        bench.first = dict(first or {})
        bench.check(jobs_seen, batch, Digest())

    verdict("protect apps round-trip and verify", lambda c: run(jobs, c))
    verdict("perturbed: protect expects another developer key", lambda c: run(wrong_key, c))
    verdict("perturbed: protect batch lost an app", lambda c: run(jobs + jobs[:1], c))
    verdict("perturbed: protect pass differs from the first pass",
            lambda c: run(jobs, c, other_pass))


def play_checks() -> None:
    from play import Ledger, Play

    bench = Play(1, Checks())
    apps = bench.setup_round(0)
    ledger = Ledger()
    for app in apps:
        for kind in ("genuine", "pirated"):
            bench.session(ledger, app, kind, 0)
    app = apps[0]
    genuine = ledger.played[(app.name, "genuine", 0)]
    pirated = ledger.played[(app.name, "pirated", 0)]

    def with_checks(checks, fn):
        bench.checks = checks
        fn()

    verdict("play sessions follow SessionEngine.play_one",
            lambda c: with_checks(c, lambda: bench.check_protocol(ledger, apps)))
    verdict("play verdicts match the distinct-device model",
            lambda c: with_checks(c, lambda: bench.check_verdicts(ledger, Digest())))

    drifted = dict(ledger.played)
    drifted[(app.name, "genuine", 0)] = dataclasses.replace(
        genuine, instructions=genuine.instructions + 1)
    verdict("perturbed: play session drifts from play_one", lambda c: with_checks(
        c, lambda: bench.check_protocol(dataclasses.replace(ledger, played=drifted), apps)))

    detecting = dataclasses.replace(genuine, detections=("b000",))
    verdict("perturbed: genuine install detects", lambda c: with_checks(
        c, lambda: bench.deliver(Ledger(), app, "genuine", 0, detecting)))

    forged = dataclasses.replace(
        pirated, reports=(f"repackaged:v1:app={app.name}:bomb=b000:key={'0' * 40}",))
    verdict("perturbed: pirated report names another key", lambda c: with_checks(
        c, lambda: bench.deliver(Ledger(), app, "pirated", 0, forged)))

    crowd = dataclasses.replace(ledger, reporters={app.name: {"d1", "d2", "d3"}})
    verdict("perturbed: verdict model counts three extra devices", lambda c: with_checks(
        c, lambda: bench.check_verdicts(crowd, Digest())))


def ingest_checks() -> None:
    from repro.reporting import ReportServer, SubmitStatus
    from ingest import Ingest, _verdicts, make_stream, recovered_matches

    stream = make_stream(1, 0, unique=150)
    with scratch_dir() as scratch:

        def run(stream_seen):
            def go(checks):
                Ingest(1, checks, scratch).run_pass(stream_seen, Digest())
            return go

        verdict("ingest statuses, verdicts and recovery match the model", run(stream))
        signed, _ = stream.sends[0]
        wrong_status = dataclasses.replace(
            stream, sends=[(signed, SubmitStatus.DUPLICATE)] + stream.sends[1:])
        verdict("perturbed: ingest expects DUPLICATE for a first sighting", run(wrong_status))
        name = next(iter(stream.verdicts))
        wrong_verdict = dataclasses.replace(
            stream, verdicts={**stream.verdicts, name: ("takedown", "ff" * 20)})
        verdict("perturbed: ingest verdict model", run(wrong_verdict))
        verdict("perturbed: ingest accepted count",
                run(dataclasses.replace(stream, accepted=stream.accepted + 1)))

    server = ReportServer()
    for app_name, original, _ in stream.apps:
        server.register_app(app_name, original)
    for item, _ in stream.sends[:40]:
        server.submit(item)
    server.process()
    state, verdicts = server.tracked_state_size(), _verdicts(server)
    verdict("recovered copy matches", lambda c: c.expect(
        recovered_matches(server, verdicts, state), "recovered copy differs"))
    verdict("perturbed: recovered copy lost a report", lambda c: c.expect(
        recovered_matches(server, verdicts, state + 1), "recovered copy differs"))


def trace_digests() -> None:
    import spans
    from ingest import Ingest, make_stream

    stream = make_stream(2, 0, unique=100)
    shorter = dataclasses.replace(stream, sends=stream.sends[:-1])
    with scratch_dir() as scratch:

        def digest_of(stream_seen, traced):
            digest = Digest()
            rec = spans.SpanRecorder()
            if traced:
                spans.install(rec)
            try:
                Ingest(2, Checks(), scratch).run_pass(stream_seen, digest)
            finally:
                rec.restore()
            return digest.hexdigest()

        plain = digest_of(stream, False)
        verdict("traced outputs equal untraced outputs", lambda c: c.expect(
            digest_of(stream, True) == plain, "traced digest differs"))
        verdict("perturbed: traced run sends one report less", lambda c: c.expect(
            digest_of(shorter, True) == plain, "traced digest differs"))


def benchmark_json() -> None:
    import json

    from run import END_TO_END, PER_LAYER
    from common import ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)

    def check(checks):
        declared = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
        checks.expect(declared == END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END")
        declared = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
        checks.expect(declared == PER_LAYER, "BENCHMARK.json per_layer != run.PER_LAYER")
        setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
        checks.expect(
            all(m["bound"] <= setup_bound for m in doc["end_to_end"]),
            "setup_s must carry the largest bound",
        )

    verdict("BENCHMARK.json declares what run.py reports", check)


def trace_restores() -> None:
    import spans
    from repro.crypto import AES128
    from repro.vm.interpreter import Interpreter

    before = (AES128.decrypt_cbc, Interpreter.execute)
    rec = spans.install(spans.SpanRecorder())
    patched = (AES128.decrypt_cbc, Interpreter.execute)
    rec.restore()

    def check(checks):
        checks.expect(patched != before, "install patched nothing")
        checks.expect((AES128.decrypt_cbc, Interpreter.execute) == before, "restore left a wrapper")

    verdict("trace wrappers install and restore", check)


def main() -> int:
    protect_checks()
    play_checks()
    ingest_checks()
    trace_digests()
    trace_restores()
    benchmark_json()
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-tests behaved")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
