"""Shared helpers: seeds, statistics, digests, correctness checks, scratch.

Everything here is benchmark-side; nothing in it calls into ``repro``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time
from typing import Iterator, List, Sequence

#: The checkout root: ``loopbench/`` sits directly under it, ``src/``
#: (the program) beside it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch space for durable state (WALs, snapshots, recovery copies).
#: Inside the checkout (the benchmark writes nowhere else), removed when
#: the run ends.
SCRATCH_ROOT = os.path.join(ROOT, ".loopbench_tmp")

#: Upper bound on every blocking wait the benchmark performs (seconds).
WAIT_S = 20.0

#: Iterations per CPU second of ``reference_rate``'s loop on the nominal
#: host that end-to-end timings are scaled to (a 2-vCPU Xeon VM runs it
#: at 1.0-1.4e7 depending on its neighbours).
REFERENCE_RATE = 1.0e7


def derive_seed(*parts: object) -> int:
    """A stable 31-bit seed from any hashable description (``hash`` of a
    str is salted per process, so it cannot be used here)."""
    digest = hashlib.sha1(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def should_stop(elapsed: float, unit_times: Sequence[float], budget: float) -> bool:
    """Time-bounded loops run whole units of work.  Stop once one more
    unit, at the mean unit time so far, would end past the budget."""
    if not unit_times:
        return False
    return elapsed + sum(unit_times) / len(unit_times) > budget


def reference_rate(seconds: float = 0.05) -> float:
    """Iterations per CPU second of a fixed pure-Python integer loop.

    Benchmark code only: no program change can speed it up, so it tracks
    how fast the host runs Python right now.  Timed on this thread's CPU
    clock, so other threads and time stolen by the hypervisor do not
    count."""
    clock = time.thread_time
    start = clock()
    iterations = 0
    while True:
        total = 0
        for i in range(1000):
            total += i * i % 7
        iterations += 1000
        elapsed = clock() - start
        if elapsed >= seconds:
            return iterations / elapsed


class HostSpeed:
    """Scales timings to the nominal host.

    A shared host's speed drifts by ±20% over minutes (neighbours on the
    same cores), which moved the median of ten runs by more than the
    bound.  Each unit of work is bracketed by two ``reference_rate``
    samples, taken while no program thread runs; ``step()`` returns
    ``scale`` = (mean of the two) / REFERENCE_RATE, and a timing t on
    this host reads t * scale on the nominal one (a rate r reads
    r / scale)."""

    def __init__(self) -> None:
        self.rates = [reference_rate()]

    def step(self) -> float:
        self.rates.append(reference_rate())
        return (self.rates[-2] + self.rates[-1]) / 2.0 / REFERENCE_RATE


class Digest:
    """Order-sensitive SHA-1 over ``repr`` of the items fed to it: the
    untraced and traced runs of the same work must feed equal items."""

    def __init__(self) -> None:
        self._sha = hashlib.sha1()

    def feed(self, *items: object) -> None:
        for item in items:
            data = item if isinstance(item, (bytes, bytearray)) else repr(item).encode("utf-8")
            self._sha.update(len(data).to_bytes(8, "big"))
            self._sha.update(data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class Checks:
    """Collects failed correctness checks; any failure makes the run's
    ``correct`` false."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, condition: bool, what: str) -> bool:
        if not condition:
            self.failures.append(what)
        return bool(condition)

    @property
    def ok(self) -> bool:
        return not self.failures


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds`` (wall) and
    ``sw.cpu`` (CPU time of the whole process, every thread)."""

    def __enter__(self) -> "Stopwatch":
        self.seconds = self.cpu = 0.0
        self._start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        self.cpu = time.process_time() - self._cpu_start


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A private directory under the checkout, removed on exit."""
    path = os.path.join(SCRATCH_ROOT, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH_ROOT)  # only succeeds once no run uses it
