"""Detection-loop benchmark: one workload per run, one JSON line out.

    python3 loopbench/run.py --workload protect|play|ingest \\
        --seed N --seconds S --trace 0|1

Run from the checkout root; the program is imported from ``src/``.
``--trace 0`` measures for ``--seconds`` with tracing off and reports
the end-to-end metrics.  ``--trace 1`` runs the workload's fixed traced
slice twice -- untraced, then with every layer entry point wrapped --
checks that both produce the same output digest, and reports the
per-layer metrics plus ``trace.overhead_pct``.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; failed checks are
listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    REFERENCE_RATE,
    ROOT,
    Checks,
    Stopwatch,
    median,
    percentile,
    scratch_dir,
)

SRC = os.path.join(ROOT, "src")

#: name -> (unit, better); every workload reports all of them with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_cpu_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
}

#: name -> (unit, better); every workload reports all of them with --trace 1
#: (0 where the workload does not reach the layer).
PER_LAYER = {
    "core.unpack_s": ("s", "lower"),
    "core.profile_s": ("s", "lower"),
    "core.instrument_s": ("s", "lower"),
    "core.verify_s": ("s", "lower"),
    "core.package_s": ("s", "lower"),
    "core.bombs": ("count", "higher"),
    "core.gate_rejected": ("count", "lower"),
    "core.code_growth_pct": ("%", "lower"),
    "pipeline.overhead_s": ("s", "lower"),
    "crypto.aes.encrypt_calls": ("count", "lower"),
    "crypto.aes.encrypt_s": ("s", "lower"),
    "crypto.aes.decrypt_calls": ("count", "lower"),
    "crypto.aes.decrypt_s": ("s", "lower"),
    "crypto.aes.decrypt_bytes": ("bytes", "lower"),
    "crypto.rsa.sign_calls": ("count", "lower"),
    "crypto.rsa.sign_s": ("s", "lower"),
    "crypto.rsa.verify_calls": ("count", "lower"),
    "crypto.rsa.verify_s": ("s", "lower"),
    "vm.instructions": ("count", "lower"),
    "vm.dispatch_self_s": ("s", "lower"),
    "vm.dispatch_p99_ms": ("ms", "lower"),
    "vm.instr_per_s": ("1/s", "higher"),
    "vm.classload_calls": ("count", "lower"),
    "vm.classload_s": ("s", "lower"),
    "vm.classload_hit_ratio": ("ratio", "higher"),
    "vm.events": ("count", "higher"),
    "vm.events_wasted": ("count", "lower"),
    "vm.events_crashed": ("count", "lower"),
    "vm.bomb_fires": ("count", "lower"),
    "vm.detections": ("count", "higher"),
    "vm.cost_overhead_pct": ("%", "lower"),
    "vm.detected_ratio": ("ratio", "higher"),
    "fuzzing.stream_s": ("s", "lower"),
    "reporting.client.report_s": ("s", "lower"),
    "reporting.server.submit_self_s": ("s", "lower"),
    "reporting.server.process_s": ("s", "lower"),
    "reporting.server.verdict_s": ("s", "lower"),
    "durability.append_calls": ("count", "lower"),
    "durability.append_s": ("s", "lower"),
    "durability.compact_calls": ("count", "lower"),
    "durability.compact_s": ("s", "lower"),
    "durability.wal_bytes_per_report": ("bytes", "lower"),
    "durability.recover_ms": ("ms", "lower"),
    "net.rtt_p50_ms": ("ms", "lower"),
    "net.overhead_p50_ms": ("ms", "lower"),
    "net.rtt_p99_ms": ("ms", "lower"),
    "net.replication.lag_max_records": ("records", "lower"),
    "net.replication.catchup_ms": ("ms", "lower"),
    "metrics.observe_calls": ("count", "lower"),
    "metrics.observe_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")


def make_workload(name: str, seed: int, checks: Checks, scratch: str):
    if name == "protect":
        from protect import Protect

        return Protect(seed, checks)
    if name == "play":
        from play import Play

        return Play(seed, checks)
    from ingest import Ingest

    return Ingest(seed, checks, scratch)


def layer_metrics(rec, facts) -> dict:
    """Per-layer figures from the recorder plus the workload's own facts."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for span in ("crypto.aes.encrypt", "crypto.aes.decrypt", "crypto.rsa.sign",
                 "crypto.rsa.verify", "vm.classload", "durability.append",
                 "durability.compact", "metrics.observe"):
        metrics[f"{span}_calls"] = rec.calls(span)
        metrics[f"{span}_s"] = rec.wall(span)
    metrics["crypto.aes.decrypt_bytes"] = rec.counts["crypto.aes.decrypt_bytes"]
    instructions = rec.counts["vm.instructions"]
    dispatch_self = rec.self_time("vm.dispatch")
    metrics["vm.instructions"] = instructions
    metrics["vm.dispatch_self_s"] = dispatch_self
    metrics["vm.instr_per_s"] = instructions / dispatch_self if dispatch_self else 0.0
    if rec.samples["vm.dispatch"]:
        metrics["vm.dispatch_p99_ms"] = percentile(rec.samples["vm.dispatch"], 99) * 1e3
    loads = rec.calls("vm.classload")
    metrics["vm.classload_hit_ratio"] = rec.counts["vm.classload_hits"] / loads if loads else 0.0
    metrics["fuzzing.stream_s"] = rec.wall("fuzzing.stream")
    metrics["reporting.client.report_s"] = rec.wall("reporting.client.report")
    metrics["reporting.server.submit_self_s"] = rec.self_time("reporting.server.submit")
    metrics["reporting.server.process_s"] = rec.wall("reporting.server.process")
    metrics["reporting.server.verdict_s"] = rec.wall("reporting.server.verdict")
    records = rec.counts["durability.wal_report_records"]
    if records:
        metrics["durability.wal_bytes_per_report"] = rec.counts["durability.wal_report_bytes"] / records
    if rec.samples["net.rtt"]:
        metrics["net.rtt_p50_ms"] = median(rec.samples["net.rtt"]) * 1e3
        metrics["net.overhead_p50_ms"] = median(rec.samples["net.overhead"]) * 1e3
        metrics["net.rtt_p99_ms"] = percentile(rec.samples["net.rtt"], 99) * 1e3
    metrics.update(facts)
    return metrics


def run_traced(args, checks: Checks, scratch: str):
    import spans

    plain = make_workload(args.workload, args.seed, checks, scratch)
    with Stopwatch() as untraced:
        digest, _, _, _ = plain.fixed()
    rec = spans.SpanRecorder()
    workload = make_workload(args.workload, args.seed, checks, scratch)
    spans.install(rec)
    try:
        with Stopwatch() as traced:
            traced_digest, facts, attempted, failed = workload.fixed()
    finally:
        rec.restore()
    checks.expect(traced_digest == digest, "trace: traced outputs differ from the untraced run's")
    if args.workload == "play":
        facts.update(workload.reference())
    metrics = layer_metrics(rec, facts)
    metrics["trace.overhead_pct"] = (traced.seconds / untraced.seconds - 1.0) * 100.0
    return metrics, PER_LAYER, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("protect", "play", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()

    checks = Checks()
    with scratch_dir() as scratch:
        if args.trace:
            metrics, units, attempted, failed = run_traced(args, checks, scratch)
        else:
            workload = make_workload(args.workload, args.seed, checks, scratch)
            metrics = workload.measure(args.seconds)
            attempted, failed = metrics.pop("attempted"), metrics.pop("failed")
            scale = metrics.pop("reference_rate") / REFERENCE_RATE
            print(f"host: reference loop at {scale:.3f} x REFERENCE_RATE; "
                  f"figures at this host's median speed: setup_s {metrics['setup_s'] / scale:.4g}, "
                  f"throughput_per_cpu_s {metrics['throughput_per_cpu_s'] * scale:.4g}, "
                  f"latency_p50_ms {metrics['latency_p50_ms'] / scale:.4g}", file=sys.stderr)
            units = END_TO_END
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
