"""Backward-slicing attack (HARVESTER, Rasthofer et al.).

"Performs backward program slicing starting from the line of suspected
code, and then executes the extracted slices to uncover the payload
behavior."

The suspected lines are the ``bomb.decrypt`` / ``bomb.load_run`` calls
(or, for naive bombs, the detection API calls).  The attack slices each
criterion, materializes the slice as a runnable method, and force-
executes it.  Encrypted bombs stop it cold: the slice contains the
*derivation* of the key from X, not the key itself, so executing the
slice with arbitrary inputs reproduces the same wrong-key failure.
"""

from __future__ import annotations

import random
from typing import List

from repro.analysis.slicing import backward_slice, extract_slice_method
from repro.apk.package import Apk
from repro.attacks.base import AttackResult
from repro.dex.opcodes import Op
from repro.errors import VMError
from repro.vm.device import attacker_lab_profiles
from repro.vm.interpreter import CountingTracer
from repro.vm.runtime import Runtime

_CRITERION_CALLS = (
    "bomb.decrypt",
    "bomb.load_run",
    "android.pm.get_public_key",
    "android.pm.get_manifest_digest",
)


class SlicingAttack:
    """Slice every suspicious call site and execute the slice."""

    def __init__(self, seed: int = 0, max_criteria: int = 60) -> None:
        self._seed = seed
        self._max_criteria = max_criteria

    def run(self, apk: Apk) -> AttackResult:
        rng = random.Random(self._seed)
        device = attacker_lab_profiles(1, seed=self._seed)[0]
        dex = apk.dex()

        criteria = []
        for method in dex.iter_methods():
            for pc, instr in enumerate(method.instructions):
                if instr.op is Op.INVOKE and instr.value in _CRITERION_CALLS:
                    criteria.append((method, pc, instr.value))
        criteria = criteria[: self._max_criteria]

        exposed: List[str] = []
        failures = 0
        slice_sizes = []
        for method, pc, call in criteria:
            sliced_pcs = backward_slice(method, pc)
            slice_sizes.append(len(sliced_pcs))
            slice_method = extract_slice_method(method, pc)

            run_dex = apk.dex()
            run_dex.classes[method.class_name].add_method(slice_method)
            tracer = CountingTracer()
            runtime = Runtime(
                run_dex, device=device.copy(), package=apk.install_view(),
                seed=self._seed, tracers=[tracer],
            )
            args = [rng.randrange(1000) if i % 2 == 0 else "probe" for i in range(slice_method.params)]
            site = f"{method.qualified_name}@{pc}"
            try:
                runtime.session(200_000).invoke(slice_method.qualified_name, args)
            except VMError:
                failures += 1
                continue
            if call.startswith("android.pm.") and call in tracer.invocations:
                # Naive bomb: the slice ran the cleartext detection.
                exposed.append(site)
            if runtime.bombs.bombs_with("payload_run"):
                exposed.append(site)

        return AttackResult(
            attack="slicing",
            defeated_defense=bool(exposed),
            bombs_found=[f"{m.qualified_name}@{pc}" for m, pc, _ in criteria],
            bombs_exposed=exposed,
            details={
                "criteria": len(criteria),
                "slice_execution_failures": failures,
                "mean_slice_size": (sum(slice_sizes) / len(slice_sizes)) if slice_sizes else 0,
            },
            notes=f"{failures} slice executions failed (encrypted payloads need the key)",
        )
