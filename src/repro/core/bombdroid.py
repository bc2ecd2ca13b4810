"""The BombDroid pipeline (Fig. 1 of the paper).

``BombDroid(config).protect(apk, developer_key)`` runs the four steps:

1. **Unpacking** -- parse the APK, extract the public key (fingerprint)
   that detection payloads will compare against.
2. **Static + dynamic analysis** -- profile hot methods (Dynodroid +
   Traceview role) and static-field entropy; discover existing
   qualified conditions in candidate methods; exclude loops.
3. **Bytecode instrumentation** -- transform existing QCs into
   double-trigger bombs (weaving bodies where possible), insert
   artificial QCs into α of the candidate methods, add bogus bombs.
4. **Packaging** -- serialize, hide the code digest in strings.xml
   steganographically, and sign.

Returns ``(protected_apk, InstrumentationReport)``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.entropy import FieldValueProfiler
from repro.analysis.loops import instructions_in_loops
from repro.analysis.profiler import profile_hot_methods
from repro.analysis.qualified_conditions import (
    QCKind,
    QualifiedCondition,
    find_qualified_conditions,
)
from repro.analysis.regions import body_region
from repro.analysis.defs import use_sites
from repro.apk.package import Apk, build_apk
from repro.apk.stego import embed_in_cover, stego_capacity
from repro.core.config import BombDroidConfig, DetectionMethod
from repro.core.inner_triggers import build_inner_condition
from repro.core.instrumenter import Instrumenter
from repro.core.result import ProtectionResult
from repro.core.stats import Bomb, InstrumentationReport
from repro.crypto import RSAKeyPair, sha1_hex
from repro.dex.hashing import method_instruction_hash
from repro.dex.model import DexFile, DexMethod
from repro.dex.opcodes import Op, UNCONDITIONAL_EXITS
from repro.dex.serializer import serialize_dex
from repro.errors import InstrumentationError, ReproError
from repro.fuzzing.generators import DynodroidGenerator
from repro.vm.device import DevicePopulation
from repro.vm.runtime import Runtime

#: Cover sentence used when the app has no string long enough to carry
#: the hidden digest.  Reads like an ordinary tagline.
_DEFAULT_COVER = (
    "thank you for installing this application we hope you enjoy using it "
    "every single day and tell all of your friends about the experience"
)


def app_identity_digest(apk: Apk) -> str:
    """Digest of everything that makes this app *this* app: every
    entry (dex and resources both count -- two catalog builds can
    share a dex and differ only in strings) plus the signing cert."""
    pieces = []
    for name in sorted(apk.entries):
        pieces.append(name.encode("utf-8"))
        pieces.append(apk.entries[name])
    pieces.append(apk.cert.serialize())
    return sha1_hex(b"\x00".join(pieces))


def derive_app_seed(seed: int, identity_digest_hex: str) -> int:
    """Mix the config seed with the app's identity.

    A shared config protecting a whole catalog must not hand every app
    the same salt/nonce/label stream -- identical salts across apps are
    a cross-app correlation gift to the attacker.  The derived seed is
    stable for (seed, app) so single-app runs stay reproducible.
    """
    blob = f"{seed}:{identity_digest_hex}".encode("utf-8")
    return int(sha1_hex(blob)[:16], 16)


class BombDroid:
    """The protection pipeline."""

    def __init__(self, config: Optional[BombDroidConfig] = None) -> None:
        self.config = config or BombDroidConfig()

    # ------------------------------------------------------------------

    def protect(
        self, apk: Apk, developer_key: RSAKeyPair, strict: bool = False
    ) -> ProtectionResult:
        """Protect ``apk``; the result is re-signed with ``developer_key``.

        The input APK must be signed by the same developer: its public
        key is what the bombs will treat as genuine.

        With ``strict=True`` the instrumented bytecode is run through
        the verifier and the stealth lint suite before packaging, and
        :class:`repro.errors.VerificationError` is raised if any
        error-severity diagnostic fires -- a corrupted or detectable
        app is never emitted.

        Returns a :class:`ProtectionResult` (tuple-compatible with the
        historical ``(protected_apk, report)`` pair).  All randomness
        derives from ``config.seed`` mixed with the app's dex digest,
        so a shared config gives every app a distinct salt stream while
        each (config, app) pair stays byte-for-byte reproducible.
        """
        config = self.config
        timings: Dict[str, float] = {}
        stage_start = time.perf_counter()

        app_seed = derive_app_seed(config.seed, app_identity_digest(apk))
        rng = random.Random(app_seed)

        dex = apk.dex()  # fresh parse: our working copy
        resources = apk.resources().copy()
        original_key_hex = apk.cert.fingerprint_hex()
        report = InstrumentationReport(
            app_name=resources.app_name,
            size_before=apk.total_size(),
            instructions_before=dex.instruction_count(),
        )
        stage_start = self._lap(timings, "unpack", stage_start)

        # -- step 2: profiling ------------------------------------------------
        hot_profile, entropy = self._profile(apk, dex, app_seed)
        stage_start = self._lap(timings, "profile", stage_start)
        report.hot_methods = sorted(hot_profile.hot_methods)
        candidates = (
            hot_profile.candidate_methods
            if config.exclude_hot_methods
            else sorted(m.qualified_name for m in dex.iter_methods())
        )
        report.candidate_methods = list(candidates)

        # Code-scan bombs pin methods that will never be instrumented.
        scan_targets = [
            (name, method_instruction_hash(dex.get_method(name)))
            for name in report.hot_methods
        ]
        app_static_fields = [
            f"{cls.name}.{f.name}"
            for cls in dex.classes.values()
            for f in cls.static_fields()
        ]

        mute_flag = None
        if config.mute_after_detection:
            mute_flag = self._install_mute_flag(dex)

        mesh_planner = None
        if config.mesh:
            from repro.core.mesh import MeshPlanner
            from repro.vm.aliases import ALIAS_RESOURCE_KEY

            mesh_planner = MeshPlanner(config, rng)
            # Ship the alias key so the runtime can resolve aliased
            # trigger invokes.  Resources survive repackaging -- an
            # attacker who drops them breaks the app outright.
            resources.strings[ALIAS_RESOURCE_KEY] = mesh_planner.alias_key

        instrumenter = Instrumenter(
            dex,
            config,
            rng,
            app_name=resources.app_name,
            original_key_hex=original_key_hex,
            scan_targets=scan_targets,
            app_static_fields=app_static_fields,
            mute_flag=mute_flag,
            mesh_planner=mesh_planner,
        )

        # -- step 3a: existing QCs ---------------------------------------------
        bombs = self._transform_existing(dex, candidates, instrumenter, rng, report)
        report.bombs.extend(bombs)

        # -- step 3b: artificial QCs ----------------------------------------------
        report.bombs.extend(
            self._insert_artificial(dex, candidates, instrumenter, entropy, rng)
        )

        # -- step 3c: bomb mesh (second weaving pass) ----------------------------
        if mesh_planner is not None:
            from repro.core.mesh import weave_mesh

            weave_mesh(
                dex,
                instrumenter.pending_sites,
                mesh_planner,
                report,
                hot_methods=report.hot_methods,
            )

        dex.validate()
        stage_start = self._lap(timings, "instrument", stage_start)

        # -- step 3d: verification gate -------------------------------------------
        if strict:
            self._strict_gate(
                dex,
                report,
                entropy,
                aliases=mesh_planner.aliases() if mesh_planner else None,
            )
        stage_start = self._lap(timings, "verify", stage_start)

        # -- step 4: packaging ---------------------------------------------------
        new_resources = self._embed_digest(dex, resources)
        protected = build_apk(dex, new_resources, developer_key)
        report.size_after = protected.total_size()
        report.instructions_after = dex.instruction_count()
        self._lap(timings, "package", stage_start)
        return ProtectionResult(
            apk=protected, report=report, timings=timings, app_seed=app_seed
        )

    @staticmethod
    def _lap(timings: Dict[str, float], stage: str, start: float) -> float:
        """Record the elapsed time for ``stage``; returns the new start."""
        now = time.perf_counter()
        timings[stage] = now - start
        return now

    @staticmethod
    def _strict_gate(
        dex: DexFile, report: InstrumentationReport, entropy, aliases=None
    ) -> None:
        """Refuse to emit an app with error-severity diagnostics.

        Imported lazily: repro.lint depends on repro.analysis, and this
        keeps repro.core import-light for callers that never gate.
        """
        from repro.errors import VerificationError
        from repro.lint import errors, run_lint

        field_entropy = {
            history.name: history.unique_count
            for history in entropy.histories.values()
        }
        diagnostics = run_lint(
            dex, report=report, field_entropy=field_entropy, aliases=aliases
        )
        failures = errors(diagnostics)
        if failures:
            preview = "; ".join(diag.format() for diag in failures[:5])
            raise VerificationError(
                f"strict mode: {len(failures)} error-severity diagnostic(s) "
                f"after instrumentation: {preview}",
                diagnostics=failures,
            )

    @staticmethod
    def _install_mute_flag(dex: DexFile) -> str:
        """Add the shared muting flag (Section 10's strategic muting).

        A disguised name and an int initial value keep it shaped like
        ordinary app state.
        """
        from repro.dex.model import DexClass, DexField

        holder = sorted(dex.classes)[0]
        cls = dex.classes[holder]
        name = "cfg_cache"
        if name not in cls.fields:
            cls.add_field(DexField(name=name, static=True, initial=False))
        return f"{holder}.{name}"

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------

    def _profile(self, apk: Apk, dex: DexFile, app_seed: int):
        """Hot-method and field-entropy profiling on the original app.

        ``dex`` is the working copy, not yet instrumented; what running
        it caches on a method (label map, compiled body) is dropped by
        the ``invalidate()`` every mutator calls.
        """
        config = self.config
        runtime = Runtime(
            dex,
            device=DevicePopulation(seed=app_seed).sample(),
            package=apk.install_view(),
            seed=app_seed,
        )
        try:
            runtime.boot()
        except ReproError:
            # A crashing app still gets profiled (and protected); only
            # the library's own failures are expected here.
            pass
        generator = DynodroidGenerator(dex, seed=app_seed)
        entropy = FieldValueProfiler()
        entropy.sample(runtime)
        sample_every = max(1, config.profiling_events // 60)  # ~once a "minute"

        def on_event(index: int, rt) -> None:
            if index % sample_every == 0:
                entropy.sample(rt)

        try:
            events = generator.stream(config.profiling_events)
        except ValueError:
            events = []
        profile = profile_hot_methods(
            runtime,
            events,
            top_fraction=config.hot_fraction,
            on_event=on_event,
        )
        return profile, entropy

    # ------------------------------------------------------------------
    # existing QCs
    # ------------------------------------------------------------------

    def _transform_existing(
        self,
        dex: DexFile,
        candidates: List[str],
        instrumenter: Instrumenter,
        rng: random.Random,
        report: InstrumentationReport,
    ) -> List[Bomb]:
        config = self.config
        bombs: List[Bomb] = []
        for name in candidates:
            method = dex.get_method(name)
            qcs = find_qualified_conditions(method)
            report.existing_qcs_found += len(qcs)
            if not qcs:
                continue
            forbidden = instructions_in_loops(method) if config.avoid_loops else set()
            plans = self._plan_method(method, qcs, forbidden, rng)
            count = 0
            for qc, region, real in plans:
                if count >= config.max_bombs_per_method:
                    break
                inner = (
                    build_inner_condition(rng, config.inner_probability)
                    if config.double_trigger
                    else None
                )
                try:
                    if region is not None and config.weave:
                        bomb = instrumenter.transform_weavable(
                            method, qc, region, inner, real=real
                        )
                    else:
                        bomb = instrumenter.transform_payload_only(
                            method, qc, inner, real=real
                        )
                except InstrumentationError:
                    continue
                bombs.append(bomb)
                count += 1
        return bombs

    def _plan_method(
        self,
        method: DexMethod,
        qcs: List[QualifiedCondition],
        forbidden: Set[int],
        rng: random.Random,
    ):
        """Order and de-conflict the QCs of one method.

        Transforms run bottom-up (descending pc) so earlier sites stay
        valid; overlapping claims are dropped; a ``bogus_ratio`` slice of
        the sites becomes bogus bombs.
        """
        config = self.config
        usable = []
        for qc in qcs:
            if qc.branch_pc in forbidden:
                continue
            if qc.kind in (QCKind.STR_STARTS_WITH, QCKind.STR_ENDS_WITH):
                # Prefix/suffix checks cannot reproduce the key from X.
                continue
            if qc.compare_pc is not None:
                if qc.branch_pc != qc.compare_pc + 1:
                    continue
                result_reg = method.instructions[qc.compare_pc].dst
                if use_sites(method, result_reg) != [qc.branch_pc]:
                    continue
            region = body_region(method, qc)
            if region is not None and qc.kind is QCKind.SWITCH_CASE:
                if not self._switch_case_isolated(method, qc):
                    region = None
            usable.append((qc, region))

        # De-conflict: claim [min_pc, max_pc) intervals bottom-up.
        usable.sort(key=lambda pair: -pair[0].branch_pc)
        claimed: List[Tuple[int, int]] = []
        planned = []
        for qc, region in usable:
            lo = qc.compare_pc if qc.compare_pc is not None else qc.branch_pc
            if qc.const_def_pc is not None:
                lo = min(lo, qc.const_def_pc)
            hi = region.end if region is not None else qc.branch_pc + 1
            hi = max(hi, qc.branch_pc + 1)
            if any(not (hi <= s or e <= lo) for s, e in claimed):
                continue
            claimed.append((lo, hi))
            planned.append((qc, region))

        flags = []
        for qc, region in planned:
            # Weavable sites become bogus with probability bogus_ratio;
            # a bogus bomb must carry woven code or deleting it would be
            # free for the attacker.
            is_bogus = region is not None and rng.random() < config.bogus_ratio
            flags.append(not is_bogus)
        return [(qc, region, real) for (qc, region), real in zip(planned, flags)]

    @staticmethod
    def _switch_case_isolated(method: DexMethod, qc: QualifiedCondition) -> bool:
        """True when only the switch's matched key references the case
        label (safe to move the case body into the payload)."""
        switch = method.instructions[qc.branch_pc]
        case_label = switch.value.get(qc.case_key)
        references = 0
        for pc, instr in enumerate(method.instructions):
            if instr.target == case_label:
                references += 1
            if instr.op is Op.SWITCH:
                references += sum(1 for lbl in instr.value.values() if lbl == case_label)
        return references == 1

    # ------------------------------------------------------------------
    # artificial QCs
    # ------------------------------------------------------------------

    def _insert_artificial(
        self,
        dex: DexFile,
        candidates: List[str],
        instrumenter: Instrumenter,
        entropy: FieldValueProfiler,
        rng: random.Random,
    ) -> List[Bomb]:
        config = self.config
        ranked = entropy.rank_by_entropy()
        if not ranked:
            return []
        pool = [name for name in candidates if name in
                {m.qualified_name for m in dex.iter_methods()}]
        rng.shuffle(pool)
        chosen = pool[: max(1, int(len(pool) * config.alpha))] if pool else []
        bombs: List[Bomb] = []
        top_fields = ranked[: max(3, len(ranked) // 3)]
        for name in sorted(chosen):
            method = dex.get_method(name)
            pc = self._artificial_site(method, rng)
            if pc is None:
                continue
            history = rng.choice(top_fields)
            values = [
                v for v in history.unique_values()
                if isinstance(v, (int, str)) and not isinstance(v, bool)
            ]
            if not values:
                continue
            constant = rng.choice(values)
            inner = (
                build_inner_condition(rng, config.inner_probability)
                if config.double_trigger
                else None
            )
            try:
                bombs.append(
                    instrumenter.insert_artificial(method, pc, history.name, constant, inner)
                )
            except InstrumentationError:
                continue
        return bombs

    def _artificial_site(self, method: DexMethod, rng: random.Random) -> Optional[int]:
        """A safe insertion pc: reachable, outside loops, at an original
        statement boundary."""
        forbidden = instructions_in_loops(method) if self.config.avoid_loops else set()
        instructions = method.instructions
        options = []
        for pc in range(len(instructions)):
            if pc in forbidden:
                continue
            if pc > 0 and instructions[pc - 1].op in UNCONDITIONAL_EXITS:
                continue  # dead position
            # Do not split a compare/branch or const/branch pair.
            if instructions[pc].op.value.startswith("if_"):
                continue
            if pc > 0 and instructions[pc - 1].op is Op.INVOKE:
                nxt = instructions[pc]
                if nxt.op.value.startswith("if_"):
                    continue
            options.append(pc)
        if not options:
            return None
        return rng.choice(options)

    # ------------------------------------------------------------------
    # packaging helpers
    # ------------------------------------------------------------------

    def _embed_digest(self, dex: DexFile, resources):
        """Hide the final classes.dex digest prefix in strings.xml."""
        config = self.config
        uses_digest = DetectionMethod.CODE_DIGEST in config.detection_methods
        if not uses_digest and config.stego_key not in resources.strings:
            # Always ship a carrier so protected apps look uniform.
            resources.strings.setdefault(config.stego_key, _DEFAULT_COVER)
            return resources
        digest = bytes.fromhex(sha1_hex(serialize_dex(dex)))
        fragment = digest[: config.stego_digest_bytes]
        cover = resources.strings.get(config.stego_key, _DEFAULT_COVER)
        if stego_capacity(cover) < len(fragment) * 8:
            cover = _DEFAULT_COVER
        resources.strings[config.stego_key] = embed_in_cover(cover, fragment)
        return resources
