"""Deterministic, seed-driven fault injection.

The wild is hostile: flash sectors rot, ciphertexts truncate, networks
vanish, clocks jump.  This module gives every layer that can fail a
*named fault point* and lets a :class:`FaultPlan` arm those points with
injectors -- bit flips, truncation, raised exceptions, latency/clock
skew, budget clamps -- each decided by a per-``(seed, site)`` RNG so an
entire chaotic run is replayable from its seed.

Usage::

    plan = FaultPlan(seed=7)
    plan.arm("crypto.aes.decrypt", "flip", probability=0.5)
    with active_plan(plan):
        ...  # run the app; armed sites now misbehave deterministically
    print(plan.log)   # every fired fault, in order

Design constraints:

* **Zero cost when idle.**  ``fault_point`` is a dict lookup away from a
  no-op when no plan is installed, so production paths stay clean.
* **No upward imports.**  Only ``repro.errors`` is imported here; the
  VM, crypto and reporting layers can call ``fault_point`` without
  creating an import cycle (the heavyweight harness lives in
  :mod:`repro.chaos.harness` and is loaded lazily).
* **Deterministic.**  Site RNGs are seeded from ``f"{seed}:{site}"``
  (string seeding is stable across processes); the fired-fault log is a
  pure function of (plan, execution path).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultInjected, ReproError

#: Injector modes understood by :func:`fault_point`.
MODES = ("raise", "flip", "truncate", "latency", "clamp")

#: The registry of known fault sites: name -> (layer, what the injector
#: corrupts).  Arming an unknown site is an error -- chaos scripts that
#: typo a site name should fail loudly, not silently inject nothing.
FAULT_SITES: Dict[str, Tuple[str, str]] = {
    "crypto.kdf.derive": ("vm.framework", "derived AES key bytes"),
    "crypto.aes.decrypt": ("vm.framework", "payload ciphertext bytes"),
    "dex.deserialize": ("vm.runtime", "decrypted payload blob bytes"),
    "vm.classload": ("vm.runtime", "dynamic class registration"),
    "vm.budget": ("vm.interpreter", "payload instruction budget"),
    "vm.framework": ("vm.framework", "any framework syscall"),
    "vm.clock": ("vm.runtime", "device clock (skew before dispatch)"),
    "report.transport": ("reporting.client", "report delivery"),
    "client.spool": ("reporting.client", "spooled report signature bytes"),
    "wal.append": ("reporting.durability", "WAL record bytes as written"),
    "wal.fsync": ("reporting.durability", "WAL fsync barrier"),
    "snapshot.write": ("reporting.durability", "snapshot payload bytes"),
    "net.partition": ("reporting.net", "client TCP connection to the ingest service"),
    "net.slow_link": ("reporting.net", "client link latency (virtual clock skew)"),
    "net.failover": ("reporting.net", "leader ingest service death mid-stream"),
    "net.heartbeat_loss": ("reporting.net", "supervisor health probe eaten in transit"),
    "net.stale_leader": ("reporting.net", "fence request dropped at the demoted leader"),
    "net.supervisor_crash": ("reporting.net", "supervisor process dies mid-tick and restarts"),
}


@dataclass
class ArmedFault:
    """One armed injector: what fires at a site, how often."""

    site: str
    mode: str
    probability: float = 1.0
    #: Stop firing after this many hits (None = unlimited).
    max_fires: Optional[int] = None
    #: Mode-specific intensity: seconds of skew for ``latency``, the
    #: budget cap for ``clamp``, bits flipped for ``flip``.
    magnitude: int = 1
    #: Exception type raised in ``raise`` mode (and as the fallback when
    #: a data mode fires at a site that carried no data).
    exc: type = FaultInjected
    fires: int = 0
    checks: int = 0


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault, as recorded in the replay log."""

    sequence: int
    site: str
    mode: str
    detail: str


class FaultPlan:
    """A seeded set of armed fault points.

    The plan owns one RNG per site (seeded from ``f"{seed}:{site}"``) so
    arming an extra site never perturbs the firing pattern of the
    others, and re-running the same workload under the same plan
    reproduces the same :attr:`log` byte for byte.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._armed: Dict[str, ArmedFault] = {}
        self._rngs: Dict[str, random.Random] = {}
        self.log: List[FaultRecord] = []

    def arm(
        self,
        site: str,
        mode: str,
        probability: float = 1.0,
        max_fires: Optional[int] = None,
        magnitude: int = 1,
        exc: type = FaultInjected,
    ) -> "FaultPlan":
        """Arm ``site`` with one injector; returns self for chaining."""
        if site not in FAULT_SITES:
            raise ReproError(f"unknown fault site {site!r}")
        if mode not in MODES:
            raise ReproError(f"unknown fault mode {mode!r}")
        if not 0.0 <= probability <= 1.0:
            raise ReproError("fault probability must be in [0, 1]")
        self._armed[site] = ArmedFault(
            site=site,
            mode=mode,
            probability=probability,
            max_fires=max_fires,
            magnitude=magnitude,
            exc=exc,
        )
        self._rngs[site] = random.Random(f"{self.seed}:{site}")
        return self

    def armed_sites(self) -> Tuple[str, ...]:
        return tuple(sorted(self._armed))

    def fires(self, site: Optional[str] = None) -> int:
        """Fired-fault count, for one site or in total."""
        if site is not None:
            armed = self._armed.get(site)
            return armed.fires if armed else 0
        return sum(armed.fires for armed in self._armed.values())

    def decide(self, site: str) -> Optional[ArmedFault]:
        """Roll the site's RNG; returns the armed fault when it fires."""
        armed = self._armed.get(site)
        if armed is None:
            return None
        armed.checks += 1
        if armed.max_fires is not None and armed.fires >= armed.max_fires:
            return None
        if armed.probability < 1.0 and self._rngs[site].random() >= armed.probability:
            return None
        armed.fires += 1
        return armed

    def record(self, armed: ArmedFault, detail: str) -> None:
        self.log.append(
            FaultRecord(len(self.log), armed.site, armed.mode, detail)
        )

    def rng_for(self, site: str) -> random.Random:
        return self._rngs[site]

    def log_signature(self) -> Tuple[Tuple[int, str, str, str], ...]:
        """Hashable view of the fired-fault log (replay comparisons)."""
        return tuple((r.sequence, r.site, r.mode, r.detail) for r in self.log)


# ---------------------------------------------------------------------------
# The active plan and the fault point itself
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process-wide active plan (None to disarm)."""
    global _ACTIVE
    _ACTIVE = plan


def clear_plan() -> None:
    install_plan(None)


def current_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def active_plan(plan: FaultPlan):
    """Scope a plan to a ``with`` block; always disarms on exit."""
    previous = _ACTIVE
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def fault_point(site: str, data=None, device=None):
    """The hook woven into fallible layers.

    Returns ``data`` (possibly corrupted), raises the armed exception,
    or skews ``device``'s clock, depending on the armed mode:

    ``raise``     raise ``armed.exc`` (default :class:`FaultInjected`)
    ``flip``      flip ``magnitude`` random bits of a bytes/int ``data``
                  (ints cover RSA signatures, which travel as integers)
    ``truncate``  drop the trailing half of a bytes ``data``
    ``latency``   ``device.advance(magnitude)`` -- clock skew
    ``clamp``     cap an int ``data`` at ``magnitude`` (budget squeeze)

    A data-mode fault at a site that carried no compatible data degrades
    to ``raise`` so armed chaos is never silently inert.
    """
    plan = _ACTIVE
    if plan is None:
        return data
    armed = plan.decide(site)
    if armed is None:
        return data
    mode = armed.mode
    if mode == "latency":
        if device is not None:
            device.advance(float(armed.magnitude))
        plan.record(armed, f"skew+{armed.magnitude}s")
        return data
    if mode == "flip" and isinstance(data, (bytes, bytearray)) and data:
        corrupted = bytearray(data)
        rng = plan.rng_for(site)
        positions = []
        for _ in range(max(1, armed.magnitude)):
            bit = rng.randrange(len(corrupted) * 8)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            positions.append(bit)
        plan.record(armed, "flip@" + ",".join(map(str, positions)))
        return bytes(corrupted)
    if mode == "flip" and isinstance(data, int) and not isinstance(data, bool):
        rng = plan.rng_for(site)
        width = max(data.bit_length(), 8)
        positions = []
        for _ in range(max(1, armed.magnitude)):
            bit = rng.randrange(width)
            data ^= 1 << bit
            positions.append(bit)
        plan.record(armed, "flip@" + ",".join(map(str, positions)))
        return data
    if mode == "truncate" and isinstance(data, (bytes, bytearray)):
        keep = len(data) // 2
        plan.record(armed, f"truncate:{len(data)}->{keep}")
        return bytes(data[:keep])
    if mode == "clamp" and isinstance(data, int) and not isinstance(data, bool):
        clamped = min(data, armed.magnitude)
        plan.record(armed, f"clamp:{data}->{clamped}")
        return clamped
    # "raise" proper, or a data mode with nothing to corrupt.
    plan.record(armed, "raise")
    exc = armed.exc
    if exc is FaultInjected:
        raise FaultInjected(f"injected fault at {site}", site=site)
    raise exc(f"injected fault at {site}")
