"""The runtime: class loading, static state, installation, bomb stats.

One :class:`Runtime` is one app process on one device.  It owns:

* the loaded code (the app's DexFile plus any dynamically loaded bomb
  payload blobs, cached by digest),
* static field storage,
* the installed-package context (certificate fingerprint, MANIFEST.MF
  digests, resources) that the Android system would manage,
* observable effects (logs, UI effects, developer reports),
* the :class:`BombRegistry` the evaluation reads, and
* the cost-unit counter used for the overhead experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaos.faults import fault_point
from repro.crypto import sha1
from repro.dex.model import DexFile, DexMethod
from repro.dex.serializer import deserialize_dex
from repro.errors import DexError, DexFormatError, MethodNotFound, VMCrash
from repro.vm.containment import CircuitBreaker, ContainmentPolicy
from repro.vm.device import DeviceProfile, DevicePopulation
from repro.vm.events import Event, handler_name_for
from repro.vm.framework import Framework
from repro.vm.interpreter import CompositeTracer, Interpreter
from repro.vm.sessions import ExecutionContext, _UNSET
from repro.vm.values import Instance


@dataclass
class InstalledPackage:
    """What the Android system retains about an installed app.

    Produced by :meth:`repro.apk.Apk.install_view`; app processes can
    read but never modify it (threat-model assumption for non-jailbroken
    user devices).
    """

    cert_fingerprint_hex: str
    manifest_digests: Dict[str, str]
    resources: Dict[str, str]
    code_blob: bytes


@dataclass
class BombEvent:
    """One recorded bomb lifecycle event."""

    clock: float
    bomb_id: str
    kind: str


class BombRegistry:
    """Collects bomb lifecycle events for the evaluation harness.

    Kinds: ``evaluated`` (outer condition hashed), ``outer_satisfied``
    (payload decrypted), ``payload_run``, ``inner_met``, ``detected``,
    ``responded``.  In a production build these markers would not exist;
    they are the measurement channel for Tables 3-5 and Figures 4-5.
    """

    def __init__(self, runtime: "Runtime") -> None:
        self._runtime = runtime
        self.events: List[BombEvent] = []
        self.counts: Dict[str, Dict[str, int]] = {}
        #: first clock per event kind, and per (bomb, kind) -- kept
        #: incrementally so hot measurement loops stay O(1).
        self.first_times: Dict[str, float] = {}
        self.first_by_bomb: Dict[tuple, float] = {}

    def record(self, bomb_id: str, kind: str) -> None:
        clock = self._runtime.device.clock
        self.events.append(BombEvent(clock, bomb_id, kind))
        per_bomb = self.counts.setdefault(bomb_id, {})
        per_bomb[kind] = per_bomb.get(kind, 0) + 1
        self.first_times.setdefault(kind, clock)
        self.first_by_bomb.setdefault((bomb_id, kind), clock)

    def bombs_with(self, kind: str) -> set:
        """Set of bomb ids that ever recorded ``kind``."""
        return {bomb_id for bomb_id, kinds in self.counts.items() if kind in kinds}

    def first_time_of(self, kind: str) -> Optional[float]:
        """Clock of the first event of ``kind``, or None."""
        return self.first_times.get(kind)

    def count(self, kind: str) -> int:
        return sum(kinds.get(kind, 0) for kinds in self.counts.values())

    def merge_from(self, other: "BombRegistry") -> None:
        """Fold another registry's history into this one (app restarts)."""
        self.events.extend(other.events)
        for bomb_id, kinds in other.counts.items():
            mine = self.counts.setdefault(bomb_id, {})
            for kind, count in kinds.items():
                mine[kind] = mine.get(kind, 0) + count
        for kind, clock in other.first_times.items():
            if kind not in self.first_times or clock < self.first_times[kind]:
                self.first_times[kind] = clock
        for key, clock in other.first_by_bomb.items():
            if key not in self.first_by_bomb or clock < self.first_by_bomb[key]:
                self.first_by_bomb[key] = clock


class Runtime:
    """One app process."""

    def __init__(
        self,
        dex: DexFile,
        device: DeviceProfile = None,
        package: InstalledPackage = None,
        seed: int = 0,
        default_budget: int = 2_000_000,
        tracer=None,
        report_client=None,
        containment: Optional[ContainmentPolicy] = None,
        tracers=(),
    ) -> None:
        self.device = device or DevicePopulation(seed=seed).sample()
        self.package = package
        self.rng = random.Random(seed)
        self.default_budget = default_budget
        #: Registered tracers, all observing through one effective hook
        #: (None / the single tracer / a CompositeTracer) so the
        #: interpreter keeps its single-attribute fast path.
        self._tracers: List = []
        self._effective_tracer = None
        if tracer is not None:
            self.add_tracer(tracer)
        for extra in tracers:
            self.add_tracer(extra)
        #: Optional repro.reporting.ReportClient; when set, REPORT
        #: responses flow through the signed wire channel as well as the
        #: local `reports` list the evaluation harness reads.
        self.report_client = report_client
        #: Optional ContainmentPolicy; when set, bomb-infrastructure
        #: failures are contained at the ``bomb.*`` boundary instead of
        #: crashing the host (see repro.vm.containment).
        self.containment = containment
        self.breaker = CircuitBreaker(
            containment.max_consecutive_failures if containment else 0
        )

        self.statics: Dict[str, object] = {}
        self._methods: Dict[str, DexMethod] = {}
        self._blob_cache: Dict[bytes, DexFile] = {}
        #: Bumped on every load_dex commit; guards framework-target
        #: inline caches (a later payload class may shadow a name that
        #: previously resolved to the framework).
        self._methods_gen = 0
        #: (post-fault blob bytes, qualified name) -> method, so warm
        #: bomb.load_run firings skip the pure-Python SHA-1 digest.
        #: Success-only: failing paths keep their original semantics.
        self._method_memo: Dict[tuple, DexMethod] = {}
        #: (post-fault ciphertext, key) -> plaintext, filled by
        #: bomb.decrypt.  CBC decryption is a pure function of both, so
        #: a repeat firing skips only the AES rounds; the fault point
        #: still runs first and a corrupted ciphertext is a miss.
        #: Success-only, like the method memo.
        self.decrypt_memo: Dict[tuple, bytes] = {}

        self.logs: List[str] = []
        self.ui_effects: List[tuple] = []
        self.reports: List[str] = []
        self.reflection_log: List[str] = []
        self.detections: List[str] = []
        self.cost_units = 0

        self.bombs = BombRegistry(self)
        self.framework = Framework(self)
        self.interpreter = Interpreter(self)

        self.load_dex(dex)
        self.app_dex = dex

    # -- tracers --------------------------------------------------------------

    @property
    def tracer(self):
        """The effective tracer the interpreter observes through:
        None, the single registered tracer, or a CompositeTracer."""
        return self._effective_tracer

    @tracer.setter
    def tracer(self, value) -> None:
        # Compatibility with save/swap/restore call sites: assigning
        # replaces the whole registration set.
        self._tracers = [] if value is None else [value]
        self._rebuild_tracer()

    @property
    def tracers(self) -> tuple:
        return tuple(self._tracers)

    def add_tracer(self, tracer) -> None:
        self._tracers.append(tracer)
        self._rebuild_tracer()

    def remove_tracer(self, tracer) -> None:
        self._tracers.remove(tracer)
        self._rebuild_tracer()

    def _rebuild_tracer(self) -> None:
        ts = self._tracers
        if not ts:
            self._effective_tracer = None
        elif len(ts) == 1:
            self._effective_tracer = ts[0]
        else:
            self._effective_tracer = CompositeTracer(ts)

    # -- class loading --------------------------------------------------------

    def load_dex(self, dex: DexFile, origin: str = "app") -> None:
        """Register a DexFile's classes: methods and static fields.

        Registration is two-phase: every qualified name is checked for
        collisions against the already-loaded set *before* anything is
        committed, so a hostile payload can neither shadow an app method
        nor leave the method table half-polluted on failure.
        """
        incoming = []
        for cls in dex.classes.values():
            for method in cls.methods.values():
                existing = self._methods.get(method.qualified_name)
                if existing is not None and existing is not method:
                    raise VMCrash(
                        f"{origin} redefines {method.qualified_name!r} "
                        "(dynamic code may not shadow loaded methods)",
                        site="vm.classload",
                    )
                incoming.append(method)
        for method in incoming:
            self._methods[method.qualified_name] = method
        self._methods_gen += 1
        for cls in dex.classes.values():
            for f in cls.static_fields():
                key = f"{cls.name}.{f.name}"
                self.statics.setdefault(key, f.initial)

    def load_blob_method(
        self, blob: bytes, qualified_name: str, bomb_id: str = None
    ) -> DexMethod:
        """Dynamically load a serialized dex blob (decrypted payload) and
        return the requested method.  Cached by content digest.

        Validation happens *before* the blob is cached or its classes
        registered: a payload that parses but lacks the entry method (or
        collides with a loaded name) leaves ``_methods``/``statics``
        untouched.
        """
        blob = fault_point("dex.deserialize", blob, device=self.device)
        memoized = self._method_memo.get((blob, qualified_name))
        if memoized is not None:
            # Warm path: this exact (post-fault) blob already loaded and
            # served this method, so the digest/lookup dance is pure
            # overhead -- bytes-key hashing is far cheaper than the
            # pure-Python SHA-1 the cold path pays.
            return memoized
        digest = sha1(blob)
        dex = self._blob_cache.get(digest)
        if dex is not None:
            try:
                method = dex.get_method(qualified_name)
            except DexError:
                raise VMCrash(
                    f"payload has no method {qualified_name!r}",
                    bomb_id=bomb_id, site="vm.classload",
                ) from None
            self._method_memo[(blob, qualified_name)] = method
            return method
        try:
            dex = deserialize_dex(blob)
        except DexFormatError as exc:
            raise VMCrash(
                f"corrupt payload blob: {exc}",
                bomb_id=bomb_id, site="dex.deserialize",
            ) from None
        try:
            method = dex.get_method(qualified_name)
        except DexError:
            raise VMCrash(
                f"payload has no method {qualified_name!r}",
                bomb_id=bomb_id, site="vm.classload",
            ) from None
        fault_point("vm.classload", device=self.device)
        self.load_dex(dex, origin=f"payload {qualified_name.rsplit('.', 1)[0]}")
        self._blob_cache[digest] = dex
        self._method_memo[(blob, qualified_name)] = method
        return method

    def find_method(self, qualified_name: str) -> Optional[DexMethod]:
        return self._methods.get(qualified_name)

    # -- state ------------------------------------------------------------------

    def sget(self, qualified_field: str):
        try:
            return self.statics[qualified_field]
        except KeyError:
            raise VMCrash(f"no static field {qualified_field!r}") from None

    def sput(self, qualified_field: str, value) -> None:
        if qualified_field not in self.statics:
            raise VMCrash(f"no static field {qualified_field!r}")
        self.statics[qualified_field] = value

    def new_instance(self, class_name: str) -> Instance:
        """Instantiate with instance-field defaults from any loaded dex."""
        for dex in self._all_dexfiles():
            cls = dex.classes.get(class_name)
            if cls is not None:
                fields = {f.name: f.initial for f in cls.fields.values() if not f.static}
                return Instance(class_name, fields)
        raise VMCrash(f"unknown class {class_name!r}")

    def _all_dexfiles(self):
        yield self.app_dex
        yield from self._blob_cache.values()

    def require_package(self, api: str) -> InstalledPackage:
        if self.package is None:
            raise VMCrash(f"{api}: app is not installed (no package context)")
        return self.package

    # -- execution ----------------------------------------------------------------

    def session(
        self, budget: Optional[int] = None, tracers=(), policy=_UNSET
    ) -> ExecutionContext:
        """Open an execution session: one budget, optional extra tracers,
        optional containment-policy override.  The session-API entry
        point -- use ``ctx.invoke(...)`` / ``ctx.dispatch(...)`` /
        ``ctx.run(...)`` for measured calls returning
        :class:`~repro.vm.sessions.SessionResult`."""
        return ExecutionContext(self, budget=budget, tracers=tracers, policy=policy)

    def invoke(self, qualified_name: str, args: List = (), budget: int = None):
        """Invoke a method by name (test/fuzzer entry point)."""
        method = self.find_method(qualified_name)
        if method is None:
            raise MethodNotFound(qualified_name)
        tracer = self.tracer
        if tracer is not None:
            tracer.on_invoke(qualified_name, list(args))
        ctx = ExecutionContext(self, budget=budget)
        return self.interpreter.execute(method, list(args), ctx)

    def boot(self, budget: int = None) -> None:
        """Run every class's ``main`` entry (app start), if present."""
        for name in sorted(self._methods):
            if name.endswith(".main") and self._methods[name].params == 0:
                self.invoke(name, (), budget=budget)

    def dispatch(self, event: Event, budget: int = None):
        """Deliver one UI event to its handler and advance the clock.

        Crashes propagate to the caller (the fuzzer harness decides
        whether to restart the app), but time advances either way.
        """
        handler = f"{event.target_class}.{handler_name_for(event.kind)}"
        method = self.find_method(handler)
        if method is None:
            raise MethodNotFound(handler)
        fault_point("vm.clock", device=self.device)
        self.device.advance(Event.DURATION)
        return self.invoke(handler, list(event.args), budget=budget)
