"""The scaffold the chaos matrices share.

:class:`MatrixReport` is the replayable result of any matrix: the seed,
one record per trial and the invariant violations, with the summary
frame (title line with per-scenario counts, body, ``replay digest:``,
violations tail).  :class:`ScenarioMatrix` is the loop of the cluster
matrices (:mod:`.crash`, :mod:`.failover`): every scenario at every
stream offset, each trial in a fresh directory, over a fixed,
pre-signed report stream.  Knobs no caller sets are the constants below.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable, ClassVar, List

from repro.crypto import RSAKeyPair, sha1_hex
from repro.reporting.server import SubmitStatus, TakedownPolicy
from repro.reporting.wire import DetectionReport, SignedReport, sign_report

#: Genuine devices cite the developer's own key; pirated ones a foreign key.
ORIGINAL_KEY = "aa" * 20
PIRATE_KEY = "bb" * 20

SHARDS = 4
POLICY = TakedownPolicy(distinct_devices=3, window_seconds=3600.0)
DUPLICATE_EVERY = 5     # deliberate client double-sends


@dataclass
class MatrixReport:
    """Everything a matrix run observed."""

    NAME: ClassVar[str] = ""

    seed: int
    trials: List = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def digest(self) -> str:
        """Replay fingerprint: same seed, same digest, bit for bit."""
        state = (
            self.seed,
            tuple(astuple(record) for record in self.trials),
            tuple(self.violations),
        )
        return sha1_hex(repr(state).encode("utf-8"))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "digest": self.digest(),
            "violations": list(self.violations),
            "trials": [
                dict(asdict(r), violations=list(r.violations))
                for r in self.trials
            ],
        }

    def _title(self) -> str:
        counts = Counter(record.scenario for record in self.trials)
        return (
            f"{self.NAME}: seed {self.seed}, {len(self.trials)} trials ("
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            + ")"
        )

    def _body(self) -> List[str]:
        raise NotImplementedError

    def summary(self) -> str:
        lines = [self._title(), *self._body(), f"replay digest: {self.digest()}"]
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("invariants: all held")
        return "\n".join(lines)


def send(
    submit: Callable[[SignedReport], SubmitStatus],
    stream: List[SignedReport],
    i: int,
    accepted: set,
    violations: List[str],
    prefix: str,
) -> None:
    """Submit ``stream[i]`` and record its ``(device, nonce)`` if
    accepted; every ``DUPLICATE_EVERY`` reports a retrying client
    double-sends the previous one, which must never count again."""
    signed = stream[i]
    pair = (signed.report.device_id, signed.report.nonce)
    if submit(signed) is SubmitStatus.ACCEPTED:
        if pair in accepted:
            violations.append(f"{prefix} (device, nonce) {pair} accepted twice")
        accepted.add(pair)
    if i % DUPLICATE_EVERY == 2:
        if submit(stream[i - 1]) is SubmitStatus.ACCEPTED:
            violations.append(f"{prefix} double-send of report {i - 1} accepted")


class ScenarioMatrix:
    """Runs ``config.scenarios`` x ``config.offsets()``, one trial each.

    Subclasses set ``APP``, ``REPORT`` and ``TMP_PREFIX`` and implement
    ``run_trial(scenario, offset, trial_dir)``.
    """

    APP: ClassVar[str]
    REPORT: ClassVar[type]
    TMP_PREFIX: ClassVar[str]

    def signed_stream(
        self, label: str, key_seed: int, observed_key_hex: str
    ) -> List[SignedReport]:
        """``config.reports`` reports from ``max(3, reports // 3)``
        devices, nonces drawn from ``Random(label)``, signed by the key
        of ``key_seed``."""
        rng = random.Random(label)
        key = RSAKeyPair.generate(seed=key_seed)
        devices = max(3, self.config.reports // 3)
        return [
            sign_report(
                DetectionReport(
                    app_name=self.APP,
                    bomb_id=f"b{i % 4:02d}",
                    device_id=f"dev-{i % devices:04d}",
                    observed_key_hex=observed_key_hex,
                    timestamp=float(i),
                    nonce=rng.getrandbits(32),
                ),
                key,
            )
            for i in range(self.config.reports)
        ]

    def run(self) -> MatrixReport:
        config = self.config
        report = self.REPORT(seed=config.seed)
        root = config.data_dir
        owns_root = root is None
        if owns_root:
            root = tempfile.mkdtemp(prefix=self.TMP_PREFIX)
        try:
            for scenario in config.scenarios:
                for offset in config.offsets():
                    trial_dir = os.path.join(root, f"{scenario}-{offset:04d}")
                    # A leftover dir from an earlier run would replay
                    # into the fresh trial and break determinism.
                    shutil.rmtree(trial_dir, ignore_errors=True)
                    os.makedirs(trial_dir)
                    record = self.run_trial(scenario, offset, trial_dir)
                    report.trials.append(record)
                    report.violations.extend(record.violations)
        finally:
            if owns_root:
                shutil.rmtree(root, ignore_errors=True)
        return report
