"""Device and environment model.

Inner trigger conditions (paper Section 6) test *environment variables*:
hardware identity (manufacturer, board, MAC, serial...), software
environment (SDK/API level, OS version, IP address) and time/sensor
readings (GPS, light, temperature).  The defense works because these are
wildly diverse across the user population but nearly constant in the
attacker's lab.

This module defines:

* :data:`ENV_DOMAINS` -- every environment variable with its value
  domain; the inner-trigger generator in :mod:`repro.core.inner_triggers`
  reads these to construct conditions with a target satisfaction
  probability, mirroring the paper's use of the Android Dashboards and
  AppBrain statistics;
* :class:`DeviceProfile` -- one concrete device;
* :class:`DevicePopulation` -- a seeded sampler of diverse user devices;
* :func:`attacker_lab_profiles` -- the handful of near-identical
  emulator configurations an attacker actually tests on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import VMCrash

# ---------------------------------------------------------------------------
# Domains.  "choice" domains carry (value, weight) pairs loosely following
# the public manufacturer / platform-version statistics the paper cites
# (AppBrain top-manufacturers, Android Dashboards circa 2017).
# ---------------------------------------------------------------------------

MANUFACTURER_SHARES: Tuple[Tuple[str, float], ...] = (
    ("samsung", 0.315),
    ("huawei", 0.105),
    ("xiaomi", 0.079),
    ("oppo", 0.069),
    ("vivo", 0.053),
    ("lge", 0.043),
    ("motorola", 0.042),
    ("sony", 0.024),
    ("htc", 0.018),
    ("google", 0.015),
    ("oneplus", 0.013),
    ("asus", 0.012),
    ("lenovo", 0.012),
    ("zte", 0.010),
    ("nokia", 0.008),
    ("other", 0.182),
)

SDK_SHARES: Tuple[Tuple[int, float], ...] = (
    (16, 0.017), (17, 0.023), (18, 0.007), (19, 0.120),
    (21, 0.054), (22, 0.168), (23, 0.284), (24, 0.175),
    (25, 0.089), (26, 0.045), (27, 0.018),
)

OS_VERSION_BY_SDK: Dict[int, str] = {
    16: "4.1", 17: "4.2", 18: "4.3", 19: "4.4",
    21: "5.0", 22: "5.1", 23: "6.0", 24: "7.0",
    25: "7.1", 26: "8.0", 27: "8.1",
}

CPU_ABIS: Tuple[Tuple[str, float], ...] = (
    ("arm64-v8a", 0.62),
    ("armeabi-v7a", 0.31),
    ("x86", 0.05),
    ("x86_64", 0.02),
)

DISPLAY_WIDTHS: Tuple[Tuple[int, float], ...] = (
    (480, 0.09), (720, 0.38), (1080, 0.43), (1440, 0.10),
)

FLASH_GB: Tuple[Tuple[int, float], ...] = (
    (8, 0.11), (16, 0.32), (32, 0.34), (64, 0.17), (128, 0.06),
)

COUNTRIES: Tuple[Tuple[str, float], ...] = (
    ("us", 0.16), ("in", 0.14), ("br", 0.08), ("id", 0.07), ("cn", 0.07),
    ("ru", 0.06), ("mx", 0.05), ("de", 0.04), ("jp", 0.04), ("gb", 0.03),
    ("fr", 0.03), ("tr", 0.03), ("kr", 0.02), ("it", 0.02), ("other", 0.16),
)


@dataclass(frozen=True)
class IntDomain:
    """A contiguous integer domain [lo, hi]."""

    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)


@dataclass(frozen=True)
class ChoiceDomain:
    """A finite weighted domain."""

    choices: Tuple[Tuple[object, float], ...]

    @property
    def size(self) -> int:
        return len(self.choices)

    def sample(self, rng: random.Random):
        values = [value for value, _ in self.choices]
        weights = [weight for _, weight in self.choices]
        return rng.choices(values, weights=weights, k=1)[0]

    def probability_of(self, predicate) -> float:
        """Total weight of choices matching ``predicate`` (normalized)."""
        total = sum(weight for _, weight in self.choices)
        hit = sum(weight for value, weight in self.choices if predicate(value))
        return hit / total if total else 0.0


#: Every environment variable an inner trigger may test, with its domain.
#: ``time.*`` variables are derived from the simulated clock rather than
#: the device profile; their domains are still listed for the generator.
ENV_DOMAINS: Dict[str, object] = {
    "build.manufacturer": ChoiceDomain(MANUFACTURER_SHARES),
    "build.sdk": ChoiceDomain(SDK_SHARES),
    "build.cpu_abi": ChoiceDomain(CPU_ABIS),
    "build.display_width": ChoiceDomain(DISPLAY_WIDTHS),
    "build.flash_gb": ChoiceDomain(FLASH_GB),
    "build.serial_low": IntDomain(0, 9999),
    "build.mac_octet": IntDomain(0, 255),
    "build.board_rev": IntDomain(1, 40),
    "build.bootloader_rev": IntDomain(1, 60),
    "net.ip_b": IntDomain(0, 255),
    "net.ip_c": IntDomain(0, 255),
    "net.ip_d": IntDomain(1, 254),
    "gps.lat": IntDomain(-90, 90),
    "gps.lon": IntDomain(-180, 180),
    "sensor.light": IntDomain(0, 10000),
    "sensor.temp": IntDomain(-30, 50),
    "locale.country": ChoiceDomain(COUNTRIES),
    "time.hour": IntDomain(0, 23),
    "time.dow": IntDomain(0, 6),
    "time.minute": IntDomain(0, 59),
}

_TIME_VARS = ("time.hour", "time.dow", "time.minute")


@dataclass
class DeviceProfile:
    """One concrete device: a snapshot of every environment variable.

    ``clock`` is the simulated wall-clock in seconds since an epoch;
    handlers advance it as events are played, so time-based inner
    triggers see a moving value.
    """

    env: Dict[str, object]
    clock: float = 0.0
    label: str = "device"

    def get(self, name: str):
        """Read an environment variable (``android.env.get`` backend).

        ``time.*`` derives from the clock; sensor readings drift over
        time (light and temperature change while the user plays --
        that within-session variation is part of why time/sensor inner
        triggers eventually fire on user devices).
        """
        if name == "time.hour":
            return int(self.clock // 3600) % 24
        if name == "time.minute":
            return int(self.clock // 60) % 60
        if name == "time.dow":
            return int(self.clock // 86400) % 7
        if name in ("sensor.light", "sensor.temp"):
            return self._sensor_reading(name)
        try:
            return self.env[name]
        except KeyError:
            raise VMCrash(f"unknown environment variable {name!r}") from None

    def _sensor_reading(self, name: str) -> int:
        """Deterministic per-device sensor value, re-drawn each minute.

        A multiplicative mix (not Python's salted ``hash``) so readings
        are reproducible across processes.
        """
        domain: IntDomain = ENV_DOMAINS[name]
        anchor = self.env.get(name, domain.lo)
        minute = int(self.clock // 60)
        kind = 12345 if name.endswith("temp") else 0
        mix = (
            anchor * 2654435761
            + minute * 40503
            + self.env.get("build.serial_low", 0) * 69069
            + kind
        ) & 0xFFFFFFFF
        return domain.lo + (mix % domain.size)

    def advance(self, seconds: float) -> None:
        self.clock += seconds

    def mutate(self, name: str, value) -> None:
        """Override one variable -- what a human analyst does (§8.3.2)."""
        if name in _TIME_VARS:
            raise VMCrash("mutate the clock, not derived time variables")
        self.env[name] = value

    def copy(self) -> "DeviceProfile":
        return DeviceProfile(env=dict(self.env), clock=self.clock, label=self.label)


class DevicePopulation:
    """Sampler of diverse user devices (difference D1 in the paper)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def sample(self, label: str = None) -> DeviceProfile:
        """Draw one device from the population distributions."""
        rng = self._rng
        env: Dict[str, object] = {}
        for name, domain in ENV_DOMAINS.items():
            if name in _TIME_VARS:
                continue
            env[name] = domain.sample(rng)
        # Start each user's session at a random wall-clock time of week.
        clock = rng.uniform(0, 7 * 86400)
        return DeviceProfile(
            env=env,
            clock=clock,
            label=label or f"user-{rng.randrange(10**6):06d}",
        )

    def sample_many(self, count: int) -> List[DeviceProfile]:
        return [self.sample() for _ in range(count)]


def attacker_lab_profiles(count: int = 4, seed: int = 7) -> List[DeviceProfile]:
    """The attacker's emulator farm: few, near-identical configurations.

    Emulators share the classic ``10.0.2.15`` NAT address, a ``generic``
    manufacturer, x86 ABIs and a couple of SDK levels -- the paper's
    observation D1 is precisely that this set is tiny compared to the
    user population.
    """
    rng = random.Random(seed)
    sdk_options = (23, 24, 25)
    profiles = []
    for index in range(count):
        sdk = sdk_options[index % len(sdk_options)]
        env = {
            "build.manufacturer": "generic",
            "build.sdk": sdk,
            "build.cpu_abi": "x86" if index % 2 == 0 else "x86_64",
            "build.display_width": 1080,
            "build.flash_gb": 16,
            "build.serial_low": 1234,
            "build.mac_octet": 0,
            "build.board_rev": 1,
            "build.bootloader_rev": 1,
            "net.ip_b": 0,
            "net.ip_c": 2,
            "net.ip_d": 15,
            "gps.lat": 37,
            "gps.lon": -122,
            "sensor.light": 300,
            "sensor.temp": 22,
            "locale.country": "us",
        }
        profiles.append(
            DeviceProfile(env=env, clock=rng.uniform(0, 86400), label=f"emulator-{index}")
        )
    return profiles


