"""Forced execution / multi-path exploration attack.

Wilhelm & Chiueh's forced sampled execution (and Moser et al.'s
multi-path exploration): run the code but *force* suspicious branches
down the path the inputs would not take, hoping to expose conditional
payloads.

Against a plain logic bomb (Listing 2) this trivially works -- the
payload is sitting in the taken branch as cleartext code.  Against a
cryptographically obfuscated bomb, forcing the hash-check branch
executes ``bomb.decrypt`` with a key derived from the *actual* (wrong)
value of X, which fails padding validation: the attacker observes a
crash, not a payload (G2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apk.package import Apk
from repro.attacks.base import AttackResult
from repro.dex import instructions as ins
from repro.dex.model import DexMethod
from repro.dex.opcodes import CONDITIONAL_BRANCHES, Op
from repro.errors import VMError
from repro.vm.device import attacker_lab_profiles
from repro.vm.events import EventKind, declared_events, handler_name_for, random_args
from repro.vm.runtime import Runtime

import random


@dataclass
class ForcedRun:
    """What forcing one branch produced."""

    method: str
    branch_pc: int
    forced_taken: bool
    outcome: str              # "ok" | "crash" | "payload_decrypt_failed"
    payload_exposed: bool


class ForcedExecutionAttack:
    """Force each suspicious branch and observe."""

    def __init__(self, seed: int = 0, per_method_branches: int = 12) -> None:
        self._seed = seed
        self._limit = per_method_branches

    def run(self, apk: Apk) -> AttackResult:
        rng = random.Random(self._seed)
        device = attacker_lab_profiles(1, seed=self._seed)[0]
        dex = apk.dex()
        runs: List[ForcedRun] = []

        for kind, class_name in declared_events(dex):
            method = dex.classes[class_name].methods[handler_name_for(kind)]
            suspicious = self._suspicious_branches(method)
            for branch_pc in suspicious[: self._limit]:
                for taken in (True, False):
                    run = self._force_branch(
                        apk, device, method, branch_pc, kind, rng, taken
                    )
                    if run is not None:
                        runs.append(run)

        exposed = [run for run in runs if run.payload_exposed]
        decrypt_failures = [run for run in runs if run.outcome == "payload_decrypt_failed"]
        return AttackResult(
            attack="forced_execution",
            defeated_defense=bool(exposed),
            bombs_found=[f"{run.method}@{run.branch_pc}" for run in runs],
            bombs_exposed=[f"{run.method}@{run.branch_pc}" for run in exposed],
            details={
                "forced_runs": len(runs),
                "decrypt_failures": len(decrypt_failures),
            },
            notes=(
                f"{len(decrypt_failures)} forced paths died in payload "
                "decryption (wrong key)"
            ),
        )

    @staticmethod
    def _suspicious_branches(method: DexMethod) -> List[int]:
        """Branches guarding something interesting: right after a hash
        comparison, or any equality branch (the naive-bomb shape)."""
        out = []
        for pc, instr in enumerate(method.instructions):
            if instr.op in (Op.IF_EQZ, Op.IF_NEZ, Op.IF_EQ, Op.IF_NE):
                out.append(pc)
        return out

    def _force_branch(
        self,
        apk: Apk,
        device,
        method: DexMethod,
        branch_pc: int,
        kind: EventKind,
        rng: random.Random,
        taken: bool,
    ) -> Optional[ForcedRun]:
        """Run a copy of the app with one branch hardwired."""
        from repro.vm.interpreter import CountingTracer

        dex = apk.dex()  # fresh copy to mutate
        target_method = dex.get_method(method.qualified_name)
        instr = target_method.instructions[branch_pc]
        if instr.op not in CONDITIONAL_BRANCHES:
            return None
        if taken:
            target_method.instructions[branch_pc] = ins.goto(instr.target)
        else:
            target_method.instructions[branch_pc] = ins.Instr(Op.NOP)
        target_method.invalidate()

        tracer = CountingTracer()
        runtime = Runtime(
            dex, device=device.copy(), package=apk.install_view(),
            seed=self._seed, tracer=tracer,
        )
        try:
            runtime.boot()
        except VMError:
            pass
        args = random_args(kind, rng)
        outcome = "ok"
        try:
            runtime.invoke(method.qualified_name, list(args), budget=300_000)
        except VMError as exc:
            outcome = (
                "payload_decrypt_failed"
                if "decryption failed" in str(exc) or "corrupt payload" in str(exc)
                else "crash"
            )
        # Exposure = the forced path reached *readable* detection logic:
        # a detection API was invoked outside an encrypted payload.  For
        # obfuscated bombs the decrypt dies first; for naive bombs the
        # cleartext payload runs directly.
        detection_apis = (
            "android.pm.get_public_key",
            "android.pm.get_manifest_digest",
            "android.pm.get_method_hash",
        )
        ran_payload = bool(runtime.bombs.bombs_with("payload_run"))
        invoked_detection = any(api in tracer.invocations for api in detection_apis)
        exposed = invoked_detection and not ran_payload
        return ForcedRun(
            method=method.qualified_name,
            branch_pc=branch_pc,
            forced_taken=taken,
            outcome=outcome,
            payload_exposed=exposed,
        )
