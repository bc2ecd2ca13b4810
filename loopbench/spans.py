"""Span recorder for the traced run.

Tracing lives entirely in the benchmark: :func:`install` wraps the
public entry points of each ``repro`` layer (class attributes, so every
instance and every call site sees the wrapper) and :meth:`SpanRecorder.restore`
puts the originals back.  Each span records its wall time and its *self*
time -- wall time minus the wall time of traced spans it caused on the
same thread.  Parent stacks are per thread: the ingest server runs its
spans on the ``ServiceHandle`` loop thread, replication on the
follower's thread, everything else on the main thread.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List


class SpanRecorder:
    def __init__(self) -> None:
        #: span name -> [calls, wall seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: free-form counters recorded at the same boundaries
        self.counts: Dict[str, float] = defaultdict(float)
        #: per-call durations (ordered) of the spans named in ``sampled``
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.sampled = {"reporting.server.submit", "vm.dispatch"}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                span = self.spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children
                if name in self.sampled:
                    self.samples[name].append(elapsed)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching -----------------------------------------------------------

    def patch(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        own = owner.__dict__.get(attr)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, own))

    def span(self, owner: type, attr: str, name: str) -> None:
        """Plain span around ``owner.attr``."""

        def make(original):
            def wrapper(*args, **kwargs):
                return self.timed(name, original, *args, **kwargs)

            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, own = self._patched.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.spans[name][0]) if name in self.spans else 0

    def wall(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0


def install(rec: SpanRecorder) -> SpanRecorder:
    """Wrap the layer entry points the per-layer metrics are built on."""
    from repro.crypto import AES128, RSAKeyPair, RSAPublicKey
    from repro.fuzzing.generators import EventGenerator
    from repro.metrics import Histogram
    from repro.reporting.client import ReportClient
    from repro.reporting.durability import DurabilityLog
    from repro.reporting.net import TcpTransport
    from repro.reporting.server import ReportServer
    from repro.vm.interpreter import Interpreter
    from repro.vm.runtime import Runtime

    # crypto
    rec.span(AES128, "encrypt_cbc", "crypto.aes.encrypt")

    def decrypt(original):
        def wrapper(self, ciphertext, iv):
            rec.add("crypto.aes.decrypt_bytes", len(ciphertext))
            return rec.timed("crypto.aes.decrypt", original, self, ciphertext, iv)

        return wrapper

    rec.patch(AES128, "decrypt_cbc", decrypt)
    rec.span(RSAKeyPair, "sign", "crypto.rsa.sign")
    rec.span(RSAPublicKey, "verify", "crypto.rsa.verify")

    # vm: top-level frames only (nested invokes re-enter execute with
    # depth > 0 and pass straight through).
    def execute(original):
        def wrapper(self, method, args, ctx, depth=0):
            if depth:
                return original(self, method, args, ctx, depth)
            before = ctx.consumed
            try:
                return rec.timed("vm.dispatch", original, self, method, args, ctx, depth)
            finally:
                rec.add("vm.instructions", ctx.consumed - before)

        return wrapper

    rec.patch(Interpreter, "execute", execute)

    # A classload is a hit when this runtime already loaded a blob with
    # the same digest (the runtime's own memo makes that the warm path).
    loaded: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def load_blob_method(original):
        def wrapper(self, blob, qualified_name, bomb_id=None):
            digest = hashlib.sha1(blob).digest()
            seen = loaded.setdefault(self, set())
            rec.add("vm.classload_hits", 1 if digest in seen else 0)
            seen.add(digest)
            return rec.timed("vm.classload", original, self, blob, qualified_name, bomb_id)

        return wrapper

    rec.patch(Runtime, "load_blob_method", load_blob_method)

    # fuzzing, reporting
    rec.span(EventGenerator, "stream", "fuzzing.stream")
    rec.span(ReportClient, "report", "reporting.client.report")
    rec.span(ReportServer, "submit", "reporting.server.submit")
    rec.span(ReportServer, "process", "reporting.server.process")
    rec.span(ReportServer, "verdict", "reporting.server.verdict")

    # durability: every public append entry point is one span name.
    for attr in ("append_report", "append_register", "append_takedown", "append_epoch"):
        rec.span(DurabilityLog, attr, "durability.append")
    rec.span(DurabilityLog, "compact", "durability.compact")

    def wal_observer(event, index, payload):
        if event == "record" and index >= 0:  # shard WALs hold the reports
            rec.add("durability.wal_report_bytes", len(payload))
            rec.add("durability.wal_report_records", 1)

    observed: "weakref.WeakSet" = weakref.WeakSet()

    def log_open(original):
        def wrapper(self):
            result = original(self)
            if self not in observed:
                observed.add(self)
                self.add_observer(wal_observer)
            return result

        return wrapper

    rec.patch(DurabilityLog, "open", log_open)

    # net: the client round trip, paired with the one server submit it
    # caused (closed loop, concurrency 1) to split out the transport.
    def transport_call(original):
        def wrapper(self, signed):
            submits = rec.samples["reporting.server.submit"]
            first = len(submits)
            start = time.perf_counter()
            try:
                return original(self, signed)
            finally:
                rtt = time.perf_counter() - start
                with rec._lock:
                    rec.samples["net.rtt"].append(rtt)
                    rec.samples["net.overhead"].append(rtt - sum(submits[first:]))

        return wrapper

    rec.patch(TcpTransport, "__call__", transport_call)

    rec.span(Histogram, "observe", "metrics.observe")
    return rec
