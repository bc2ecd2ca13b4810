"""Parallel batch protection: a whole corpus through BombDroid.

The market operator's workload (thousands of apps through the same
pipeline) fans out across a ``ProcessPoolExecutor`` -- protection is
CPU-bound pure Python, so processes, not threads.  Three properties
the driver guarantees:

* **Determinism** -- outputs are byte-identical for ``workers=1`` and
  ``workers=N``.  Workers receive framed APK bytes and return framed
  bytes (no object identity crosses the process boundary), each app's
  randomness derives from ``config.seed`` mixed with its dex digest,
  and outcomes are collected in job order regardless of completion
  order.
* **Failure isolation** -- one app failing (verification gate, corrupt
  input, instrumentation crash) becomes a structured
  :class:`AppOutcome`; the batch never aborts.
* **Cache reuse** -- with a ``cache_dir``, artifacts are served from
  the content-addressed :class:`repro.pipeline.cache.ArtifactCache`
  keyed by (dex digest, config digest, signing key, code version).

Serial fallback: ``workers=1`` or a non-picklable config/key runs
everything in-process with identical results.
"""

from __future__ import annotations

import enum
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.apk.io import apk_from_bytes, apk_to_bytes
from repro.apk.package import Apk
from repro.core import BombDroid, BombDroidConfig, ProtectionResult
from repro.core.stats import InstrumentationReport
from repro.crypto import RSAKeyPair, sha1_hex
from repro.errors import ReproError, VerificationError
from repro.metrics import MetricsRegistry
from repro.pipeline.cache import ArtifactCache, artifact_key

#: Histogram buckets for per-app protect latency (seconds).
_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class BatchJob:
    """One app to protect.  Carries bytes, not objects: jobs cross
    process boundaries and feed digests, so the framed form is
    canonical."""

    name: str
    apk_bytes: bytes
    developer_key: RSAKeyPair

    @classmethod
    def from_apk(cls, name: str, apk: Apk, developer_key: RSAKeyPair) -> "BatchJob":
        return cls(name=name, apk_bytes=apk_to_bytes(apk), developer_key=developer_key)

    def content_digest(self) -> str:
        """SHA-1 over the whole framed container -- the cache-key
        ingredient.  Covers resources too: stego embedding makes the
        protected output depend on more than the dex."""
        return sha1_hex(self.apk_bytes)


def jobs_from_dir(
    corpus_dir: str,
    developer_key: RSAKeyPair,
    suffix: str = ".rapk",
) -> List[BatchJob]:
    """One job per ``*.rapk`` file, sorted by filename (deterministic
    batch order).  Files are read as they are: a file that does not
    parse becomes that app's CRASHED outcome, not a failed batch."""
    jobs = []
    for entry in sorted(os.listdir(corpus_dir)):
        if not entry.endswith(suffix):
            continue
        with open(os.path.join(corpus_dir, entry), "rb") as handle:
            apk_bytes = handle.read()
        jobs.append(
            BatchJob(
                name=entry[: -len(suffix)],
                apk_bytes=apk_bytes,
                developer_key=developer_key,
            )
        )
    return jobs


@dataclass
class BatchOptions:
    """Driver knobs (the protection knobs live in BombDroidConfig)."""

    #: Worker processes: an int (1 = serial) or ``"auto"`` -- size the
    #: pool to the host, degrading to serial when ``os.cpu_count() <= 1``
    #: (BENCH_protect_batch records a 0.675x ProcessPool *slowdown* on
    #: 1-core hosts: pickling + process startup with no parallelism to
    #: pay for it).
    workers: Union[int, str] = 1
    cache_dir: Optional[str] = None
    strict: bool = False


def resolve_workers(
    workers: Union[int, str], job_count: int
) -> Tuple[int, bool]:
    """``(worker_count, auto_serial)`` for a ``BatchOptions.workers``.

    ``auto_serial`` is True only when ``"auto"`` *chose* serial because
    the host cannot win from fan-out -- that decision is recorded in
    ``BatchResult.serial_fallback`` and the bench output.
    """
    if workers == "auto":
        cpus = os.cpu_count() or 1
        if cpus <= 1:
            return 1, True
        return min(cpus, max(job_count, 1)), False
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an int or 'auto', got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers, False


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


class OutcomeStatus(enum.Enum):
    """What happened to one app; the batch itself always completes."""

    OK = "ok"
    VERIFICATION_FAILED = "verification_failed"
    CRASHED = "crashed"


@dataclass
class AppOutcome:
    """Structured per-app result (never an exception)."""

    name: str
    status: OutcomeStatus
    result: Optional[ProtectionResult] = None
    error: str = ""
    error_type: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is OutcomeStatus.OK

    @property
    def cache_hit(self) -> bool:
        return bool(self.result and self.result.cache_hit)


@dataclass
class BatchResult:
    """The whole batch: outcomes in job order + aggregate accounting."""

    outcomes: List[AppOutcome]
    elapsed: float
    workers: int
    serial_fallback: bool = False
    #: How the compute pass actually ran: ``"serial"`` (in-process) or
    #: ``"process-pool"`` (framed tasks fanned across workers).  Distinct
    #: from ``serial_fallback``, which records *why* serial was chosen.
    strategy: str = "serial"
    metrics: Dict[str, object] = field(default_factory=dict)

    def by_status(self, status: OutcomeStatus) -> List[AppOutcome]:
        return [o for o in self.outcomes if o.status is status]

    @property
    def ok_count(self) -> int:
        return len(self.by_status(OutcomeStatus.OK))

    @property
    def failed_count(self) -> int:
        return len(self.outcomes) - self.ok_count

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def apps_per_second(self) -> float:
        return len(self.outcomes) / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        verif = len(self.by_status(OutcomeStatus.VERIFICATION_FAILED))
        crashed = len(self.by_status(OutcomeStatus.CRASHED))
        mode = f"{self.workers} worker(s), {self.strategy}"
        if self.serial_fallback:
            mode += " (serial fallback)"
        return (
            f"protected {self.ok_count}/{len(self.outcomes)} app(s) "
            f"in {self.elapsed:.2f}s ({self.apps_per_second:.2f} apps/s, "
            f"{mode}); {self.cache_hits} from cache, "
            f"{verif} verification failure(s), {crashed} crash(es)"
        )


# ---------------------------------------------------------------------------
# The worker (module-level: must be picklable for the process pool)
# ---------------------------------------------------------------------------


def _protect_worker(task: Tuple[str, bytes, RSAKeyPair, BombDroidConfig, bool]) -> Dict:
    """Protect one app; ALL failures come back as data, never raise.

    Returns plain bytes/dicts so results pickle cheaply and the parent
    can byte-compare artifacts across worker counts.
    """
    name, apk_bytes, developer_key, config, strict = task
    start = time.perf_counter()
    try:
        apk = apk_from_bytes(apk_bytes, source=name)
        result = BombDroid(config).protect(apk, developer_key, strict=strict)
        return {
            "name": name,
            "status": OutcomeStatus.OK.value,
            "apk_bytes": apk_to_bytes(result.apk),
            "report": result.report.to_dict(),
            "timings": result.timings,
            "app_seed": result.app_seed,
            "seconds": time.perf_counter() - start,
        }
    except VerificationError as exc:
        status, error = OutcomeStatus.VERIFICATION_FAILED, str(exc)
        error_type = type(exc).__name__
    except ReproError as exc:
        status, error = OutcomeStatus.CRASHED, str(exc)
        error_type = type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        status, error = OutcomeStatus.CRASHED, str(exc)
        error_type = type(exc).__name__
    return {
        "name": name,
        "status": status.value,
        "error": error,
        "error_type": error_type,
        "seconds": time.perf_counter() - start,
    }


def _protect_worker_frame(blob: bytes) -> Dict:
    """Framed entry point for the process pool.

    The parent serializes each task exactly once with
    ``pickle.dumps(task, HIGHEST_PROTOCOL)`` -- the same pass that
    proves the task can cross the process boundary at all -- and ships
    the resulting frame.  Shipping bytes instead of the tuple keeps the
    executor's own transport pickling trivial (one ``bytes`` object)
    and guarantees the poolability check tested the exact payload the
    worker receives.
    """
    return _protect_worker(pickle.loads(blob))


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def _frame_tasks(tasks: List[Tuple]) -> Optional[List[bytes]]:
    """Serialize every task once, or ``None`` when any cannot pickle.

    One pass does double duty: it *is* the poolability check (a task
    must pickle to cross the process boundary) and its output *is* the
    worker payload (``_protect_worker_frame`` unpickles the same
    frame).  The old driver pickled each task twice -- once to probe,
    once inside ``pool.submit`` -- which BENCH_protect_batch showed as
    pure overhead on APK-heavy tasks.
    """
    frames = []
    try:
        for task in tasks:
            frames.append(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - any pickling failure means serial
        return None
    return frames


def _outcome_from_payload(
    payload: Dict, cache_key: Optional[str]
) -> AppOutcome:
    """Rehydrate a worker's dict into an AppOutcome."""
    status = OutcomeStatus(payload["status"])
    if status is not OutcomeStatus.OK:
        return AppOutcome(
            name=payload["name"],
            status=status,
            error=payload.get("error", ""),
            error_type=payload.get("error_type", ""),
            seconds=payload.get("seconds", 0.0),
        )
    result = ProtectionResult(
        apk=apk_from_bytes(payload["apk_bytes"], source=payload["name"]),
        report=InstrumentationReport.from_dict(payload["report"]),
        timings=dict(payload.get("timings", {})),
        app_seed=payload.get("app_seed", 0),
        cache_hit=False,
        cache_key=cache_key,
    )
    return AppOutcome(
        name=payload["name"],
        status=status,
        result=result,
        seconds=payload.get("seconds", 0.0),
    )


def protect_batch(
    jobs: Sequence[BatchJob],
    config: Optional[BombDroidConfig] = None,
    options: Optional[BatchOptions] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> BatchResult:
    """Protect every job; outcomes come back in job order.

    ``metrics`` (a shared :class:`repro.metrics.MetricsRegistry`)
    accumulates counters (``pipeline.apps``, ``pipeline.ok``,
    ``pipeline.cache.hits`` ...) and histograms (``pipeline.protect_seconds``,
    ``pipeline.stage.<stage>``) across calls.
    """
    config = config or BombDroidConfig()
    options = options or BatchOptions()
    registry = metrics if metrics is not None else MetricsRegistry()
    cache = ArtifactCache(options.cache_dir) if options.cache_dir else None
    worker_count, auto_serial = resolve_workers(options.workers, len(jobs))
    if auto_serial:
        registry.counter("pipeline.serial_fallbacks").inc()

    started = time.perf_counter()
    outcomes: List[Optional[AppOutcome]] = [None] * len(jobs)
    pending: List[Tuple[int, BatchJob, Optional[str]]] = []

    # -- cache pass -----------------------------------------------------------
    for index, job in enumerate(jobs):
        key = None
        if cache is not None:
            key = artifact_key(
                job.content_digest(), config, job.developer_key, options.strict
            )
            hit = cache.get(key)
            if hit is not None:
                result = ProtectionResult(
                    apk=apk_from_bytes(hit.apk_bytes, source=job.name),
                    report=InstrumentationReport.from_dict(hit.report),
                    timings={},
                    app_seed=hit.app_seed,
                    cache_hit=True,
                    cache_key=key,
                )
                outcomes[index] = AppOutcome(
                    name=job.name, status=OutcomeStatus.OK, result=result
                )
                registry.counter("pipeline.cache.hits").inc()
                continue
            registry.counter("pipeline.cache.misses").inc()
        pending.append((index, job, key))

    # -- compute pass ---------------------------------------------------------
    tasks = [
        (job.name, job.apk_bytes, job.developer_key, config, options.strict)
        for _, job, _ in pending
    ]
    serial_fallback = auto_serial
    use_pool = worker_count > 1 and bool(tasks)
    frames: Optional[List[bytes]] = None
    if use_pool:
        frames = _frame_tasks(tasks)
        if frames is None:
            use_pool = False
            serial_fallback = True
            registry.counter("pipeline.serial_fallbacks").inc()

    if use_pool:
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            futures = [pool.submit(_protect_worker_frame, frame) for frame in frames]
            payloads = []
            for future, task in zip(futures, tasks):
                try:
                    payloads.append(future.result())
                except Exception as exc:  # pool/transport failure, isolate
                    payloads.append({
                        "name": task[0],
                        "status": OutcomeStatus.CRASHED.value,
                        "error": str(exc),
                        "error_type": type(exc).__name__,
                        "seconds": 0.0,
                    })
    else:
        payloads = [_protect_worker(task) for task in tasks]
    strategy = "process-pool" if use_pool else "serial"

    for (index, job, key), payload in zip(pending, payloads):
        outcome = _outcome_from_payload(payload, key)
        outcomes[index] = outcome
        if cache is not None and outcome.ok and key is not None:
            cache.put(
                key,
                payload["apk_bytes"],
                payload["report"],
                app_seed=payload.get("app_seed", 0),
            )

    # -- accounting -----------------------------------------------------------
    elapsed = time.perf_counter() - started
    registry.gauge("pipeline.workers").set(worker_count)
    latency = registry.histogram("pipeline.protect_seconds", _LATENCY_BUCKETS)
    for outcome in outcomes:
        registry.counter("pipeline.apps").inc()
        registry.counter(f"pipeline.{outcome.status.value}").inc()
        if outcome.seconds:
            latency.observe(outcome.seconds)
        if outcome.result is not None:
            for stage, seconds in outcome.result.timings.items():
                registry.histogram(
                    f"pipeline.stage.{stage}", _LATENCY_BUCKETS
                ).observe(seconds)

    return BatchResult(
        outcomes=[o for o in outcomes if o is not None],
        elapsed=elapsed,
        workers=worker_count,
        serial_fallback=serial_fallback,
        strategy=strategy,
        metrics=registry.snapshot(),
    )
