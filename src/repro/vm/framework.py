"""The framework API surface (``android.*``, ``java.*``, ``bomb.*``).

Bytecode reaches the outside world only through INVOKE on these names.
Three namespaces:

``android.*``  the Android system services the paper's detection relies
               on -- ``android.pm.get_public_key`` is the
               ``Certificate.getPublicKey`` equivalent, ``android.pm.
               get_manifest_digest`` reads MANIFEST.MF, ``android.env.
               get`` reads Build/sensor/network state, ``android.res.
               get_string`` reads strings.xml.

``java.*``     string/math library calls (``equals``, ``startsWith``...
               -- the equality methods the QC finder recognizes).

``bomb.*``     the runtime support BombDroid's injected code calls:
               salted hashing, key derivation, AES decryption, dynamic
               payload loading, and measurement markers.  In a real
               deployment the markers would not exist; here they feed
               the :class:`repro.vm.runtime.BombRegistry` that the
               evaluation harness reads.

Every call has a *cost weight* approximating its relative runtime
expense; the interpreter accumulates these into ``runtime.cost_units``,
which is the deterministic execution-time metric used by the Table 5
overhead experiment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.chaos.faults import fault_point
from repro.crypto import AES128, Salt, derive_key, encode_value, sha1_hex
from repro.errors import (
    BadPaddingError,
    ContainmentBreach,
    CryptoError,
    FaultInjected,
    PayloadError,
    ReproError,
    VMCrash,
    VMError,
)
from repro.vm.containment import fall_through
from repro.vm.values import require_int, to_int32

#: Cost (in interpreter units) of each framework call, on top of the
#: 1-unit INVOKE itself.  Hashing and decryption are expensive, which is
#: why hot-method exclusion matters for overhead.
CALL_COSTS: Dict[str, int] = {
    "bomb.hash": 15,
    "bomb.derive": 15,
    "bomb.decrypt": 300,
    "bomb.load_run": 150,
    "bomb.sha1_hex": 80,
    "bomb.stego_extract": 20,
    # Mesh guard digests: the listed cost is the cached-lookup price;
    # the first computation per method adds _DIGEST_COST (method bodies
    # are immutable at runtime, so memoizing is sound and keeps guard
    # re-verification off the Table 5 overhead).
    "bomb.shape_digest": 5,
    "bomb.method_digest": 5,
    # A probe reads a tracer flag or compares the handler table to its
    # baseline -- cheap checks, priced accordingly (they run on every
    # inner-trigger evaluation of a meshed bomb).
    "bomb.probe": 3,
    "android.pm.get_method_hash": 120,
    "android.pm.get_public_key": 30,
    "android.pm.get_manifest_digest": 30,
    "android.pm.get_code_blob": 50,
    "android.res.get_string": 5,
    "android.env.get": 5,
}
_DEFAULT_COST = 2

#: Extra cost of actually hashing a method body on a digest-cache miss.
_DIGEST_COST = 115


class Framework:
    """Dispatcher for framework API calls."""

    def __init__(self, runtime) -> None:
        self._runtime = runtime
        self._handlers: Dict[str, Callable] = {}
        self._register_all()
        # Per-app alias symbols (mesh ALIASED prologue shape).  The
        # alias key rides in the installed package's resources, so a
        # repackaged copy keeps resolving -- only a copy that *removed*
        # resources would break, and that copy does not run at all.
        package = getattr(runtime, "package", None)
        resources = getattr(package, "resources", None) if package else None
        from repro.vm.aliases import alias_table_from_resources

        self._aliases: Dict[str, str] = alias_table_from_resources(resources)
        # Snapshot for the anti-hook probe: any later handler swap or
        # addition (API interception) flips ``bomb.probe("hooks")``.
        self._baseline_handlers: Dict[str, Callable] = dict(self._handlers)
        # Mesh guard digests, memoized per (kind, method): app method
        # bodies never change at runtime, so every guard re-verification
        # after the first is a cheap lookup.
        self._digest_cache: Dict[Tuple[str, str], str] = {}

    def call(self, name: str, args: List, ctx):
        """Dispatch one framework call under the caller's
        :class:`~repro.vm.sessions.ExecutionContext`."""
        handler = self._handlers.get(name)
        if handler is None and name in self._aliases:
            name = self._aliases[name]
            handler = self._handlers.get(name)
        if handler is None:
            raise VMCrash(f"unknown method {name!r}")
        fault_point("vm.framework", device=self._runtime.device)
        self._runtime.cost_units += CALL_COSTS.get(name, _DEFAULT_COST)
        return handler(args, ctx)

    def resolve_entry(self, name: str, methods_gen: int):
        """Resolve ``name`` into an inline-cacheable framework entry.

        Returns ``(None, resolved_name, cost, methods_gen)`` -- alias
        resolution and cost are fixed at install time, so both are safe
        to cache; the generation counter guards against a later payload
        class shadowing the name under method-first dispatch.  The
        handler *function* is intentionally not part of the entry:
        :meth:`call_resolved` looks it up live so handler-table swaps
        (the hooking attack surface) behave exactly as uncached calls.
        Returns None for unknown names (never cached; the slow path
        raises the legacy VMCrash).
        """
        resolved = name
        if resolved not in self._handlers and resolved in self._aliases:
            resolved = self._aliases[resolved]
        if resolved not in self._handlers:
            return None
        return (None, resolved, CALL_COSTS.get(resolved, _DEFAULT_COST), methods_gen)

    def call_resolved(self, name: str, cost: int, args: List, ctx):
        """Invoke a pre-resolved framework entry (inline-cache hit path).

        Byte-identical to :meth:`call` after alias resolution: live
        handler lookup, the ``vm.framework`` fault point, then the
        cached cost weight.
        """
        handler = self._handlers.get(name)
        if handler is None:
            raise VMCrash(f"unknown method {name!r}")
        fault_point("vm.framework", device=self._runtime.device)
        self._runtime.cost_units += cost
        return handler(args, ctx)

    def knows(self, name: str) -> bool:
        return name in self._handlers or name in self._aliases

    def _register_all(self) -> None:
        register = self._handlers.__setitem__

        # -- android.* ------------------------------------------------------
        register("android.env.get", self._env_get)
        register("android.time.now", self._time_now)
        register("android.pm.get_public_key", self._get_public_key)
        register("android.pm.get_manifest_digest", self._get_manifest_digest)
        register("android.pm.get_code_blob", self._get_code_blob)
        register("android.res.get_string", self._res_get_string)
        register("android.log.i", self._log)
        register("android.ui.alert", self._alert)
        register("android.ui.toast", self._toast)
        register("android.net.report", self._report)
        register("android.reflect.call", self._reflect_call)

        # -- java.* ---------------------------------------------------------
        register("java.str.equals", self._str_equals)
        register("java.str.starts_with", self._str_starts_with)
        register("java.str.ends_with", self._str_ends_with)
        register("java.str.contains", self._str_contains)
        register("java.str.length", self._str_length)
        register("java.str.concat", self._str_concat)
        register("java.str.substring", self._str_substring)
        register("java.str.char_at", self._str_char_at)
        register("java.str.index_of", self._str_index_of)
        register("java.str.hash_code", self._str_hash_code)
        register("java.str.from_int", self._str_from_int)
        register("java.str.to_int", self._str_to_int)
        register("java.math.abs", self._math_abs)
        register("java.math.min", self._math_min)
        register("java.math.max", self._math_max)
        register("java.rand.next", self._rand_next)

        # -- bomb.* ----------------------------------------------------------
        register("bomb.hash", self._bomb_hash)
        register("bomb.sha1_hex", self._bomb_sha1_hex)
        register("bomb.stego_extract", self._bomb_stego_extract)
        register("android.pm.get_method_hash", self._get_method_hash)
        register("bomb.derive", self._bomb_derive)
        register("bomb.decrypt", self._bomb_decrypt)
        register("bomb.load_run", self._bomb_load_run)
        register("bomb.mark", self._bomb_mark)
        register("bomb.shape_digest", self._bomb_shape_digest)
        register("bomb.method_digest", self._bomb_method_digest)
        register("bomb.probe", self._bomb_probe)

    # ------------------------------------------------------------------
    # android.*
    # ------------------------------------------------------------------

    def _env_get(self, args, ctx):
        (name,) = args
        return self._runtime.device.get(name)

    def _time_now(self, args, ctx):
        return int(self._runtime.device.clock)

    def _get_public_key(self, args, ctx):
        """Hex fingerprint of the *installed* certificate's public key.

        The Android system manages the certificate after install; app
        code cannot change it (threat model, Section 2.1).
        """
        package = self._runtime.require_package("android.pm.get_public_key")
        return package.cert_fingerprint_hex

    def _get_manifest_digest(self, args, ctx):
        (entry,) = args
        package = self._runtime.require_package("android.pm.get_manifest_digest")
        digest = package.manifest_digests.get(entry)
        if digest is None:
            raise VMCrash(f"MANIFEST.MF has no entry {entry!r}")
        return digest

    def _get_code_blob(self, args, ctx):
        package = self._runtime.require_package("android.pm.get_code_blob")
        return package.code_blob

    def _res_get_string(self, args, ctx):
        (key,) = args
        package = self._runtime.require_package("android.res.get_string")
        value = package.resources.get(key)
        if value is None:
            raise VMCrash(f"strings.xml has no entry {key!r}")
        return value

    def _log(self, args, ctx):
        (message,) = args
        self._runtime.logs.append(str(message))
        return None

    def _alert(self, args, ctx):
        (message,) = args
        self._runtime.ui_effects.append(("alert", str(message)))
        return None

    def _toast(self, args, ctx):
        (message,) = args
        self._runtime.ui_effects.append(("toast", str(message)))
        return None

    def _report(self, args, ctx):
        """Deliver a developer report: record locally and, when the
        device has a report client, send it through the signed wire
        channel.  Delivery failures never crash the app -- the client
        spools and the local record stands either way."""
        (message,) = args
        runtime = self._runtime
        runtime.reports.append(str(message))
        client = runtime.report_client
        if client is not None:
            client.send_text(str(message), timestamp=runtime.device.clock)
        return None

    def _reflect_call(self, args, ctx):
        """Reflection: call a framework API whose name is a runtime string.

        This is how SSN hides ``getPublicKey`` -- and why checking the
        reflection destination (the instrumentation attack) reveals it.
        """
        name = args[0]
        if not isinstance(name, str):
            raise VMCrash("reflective call needs a string method name")
        self._runtime.reflection_log.append(name)
        return self.call(name, list(args[1:]), ctx)

    # ------------------------------------------------------------------
    # java.*
    # ------------------------------------------------------------------

    @staticmethod
    def _as_str(value, context: str) -> str:
        if not isinstance(value, str):
            raise VMCrash(f"{context}: expected string, got {type(value).__name__}")
        return value

    def _str_equals(self, args, ctx):
        a, b = args
        return isinstance(a, str) and isinstance(b, str) and a == b

    def _str_starts_with(self, args, ctx):
        a, b = args
        return self._as_str(a, "starts_with").startswith(self._as_str(b, "starts_with"))

    def _str_ends_with(self, args, ctx):
        a, b = args
        return self._as_str(a, "ends_with").endswith(self._as_str(b, "ends_with"))

    def _str_contains(self, args, ctx):
        a, b = args
        return self._as_str(b, "contains") in self._as_str(a, "contains")

    def _str_length(self, args, ctx):
        (a,) = args
        return len(self._as_str(a, "length"))

    def _str_concat(self, args, ctx):
        a, b = args
        if isinstance(b, int) and not isinstance(b, bool):
            b = str(b)
        return self._as_str(a, "concat") + self._as_str(b, "concat")

    def _str_substring(self, args, ctx):
        s, start, end = args
        s = self._as_str(s, "substring")
        start = require_int(start, "substring")
        end = require_int(end, "substring")
        if not 0 <= start <= end <= len(s):
            raise VMCrash(f"substring({start},{end}) out of bounds for length {len(s)}")
        return s[start:end]

    def _str_char_at(self, args, ctx):
        s, index = args
        s = self._as_str(s, "char_at")
        index = require_int(index, "char_at")
        if not 0 <= index < len(s):
            raise VMCrash(f"char_at({index}) out of bounds for length {len(s)}")
        return ord(s[index])

    def _str_index_of(self, args, ctx):
        s, needle = args
        return self._as_str(s, "index_of").find(self._as_str(needle, "index_of"))

    def _str_hash_code(self, args, ctx):
        """Java's String.hashCode: h = 31*h + c, wrapped to 32 bits."""
        (s,) = args
        result = 0
        for ch in self._as_str(s, "hash_code"):
            result = to_int32(31 * result + ord(ch))
        return result

    def _str_from_int(self, args, ctx):
        (value,) = args
        return str(require_int(value, "from_int"))

    def _str_to_int(self, args, ctx):
        (s,) = args
        try:
            return to_int32(int(self._as_str(s, "to_int")))
        except ValueError:
            raise VMCrash(f"cannot parse int from {s!r}") from None

    def _math_abs(self, args, ctx):
        (a,) = args
        return to_int32(abs(require_int(a, "abs")))

    def _math_min(self, args, ctx):
        a, b = args
        return min(require_int(a, "min"), require_int(b, "min"))

    def _math_max(self, args, ctx):
        a, b = args
        return max(require_int(a, "max"), require_int(b, "max"))

    def _rand_next(self, args, ctx):
        """Uniform int in [0, bound) -- SSN's probabilistic invocation."""
        (bound,) = args
        bound = require_int(bound, "rand.next")
        if bound <= 0:
            raise VMCrash("rand.next bound must be positive")
        return self._runtime.rng.randrange(bound)

    # ------------------------------------------------------------------
    # bomb.*
    # ------------------------------------------------------------------

    def _bomb_hash(self, args, ctx):
        """``Hash(X | salt)`` as a hex string; records HASH_EVALUATED.

        Unencodable runtime values (null, objects, arrays) can never
        equal the removed constant, so they hash to a sentinel that
        matches no stored digest instead of crashing the app.
        """
        value, salt_hex, bomb_id = args
        self._runtime.bombs.record(bomb_id, "evaluated")
        try:
            encoded = encode_value(value)
        except TypeError:
            return "00" * 20
        return sha1_hex(encoded + bytes.fromhex(salt_hex))

    def _bomb_derive(self, args, ctx):
        """AES key from the live trigger operand (never from a constant)."""
        value, salt_hex = args
        runtime = self._runtime
        try:
            key = derive_key(value, Salt(bytes.fromhex(salt_hex)))
            return fault_point("crypto.kdf.derive", key, device=runtime.device)
        except (TypeError, FaultInjected) as exc:
            if runtime.containment is not None:
                # Degrade to a key that cannot decrypt anything: the
                # failure is then attributed (with a bomb id) at the
                # decrypt boundary, where containment handles it.
                return b"\x00" * 16
            raise VMCrash(str(exc), site="crypto.kdf.derive") from None

    # -- containment boundary -------------------------------------------

    def _contain(self, bomb_id: str, site: str, exc, fallback):
        """Handle one bomb-infrastructure failure.

        Legacy (no policy): crash through, now with attribution.
        Contained: record ``payload_error``, feed the circuit breaker
        (``quarantined`` on trip), and return ``fallback`` so the
        instrumented site resumes with its original branch semantics.
        Strict policies re-raise as PayloadError after recording.
        """
        runtime = self._runtime
        policy = runtime.containment
        if policy is None:
            if isinstance(exc, VMCrash):
                raise exc
            raise VMCrash(
                f"bomb {bomb_id} failed at {site}: {exc}",
                bomb_id=bomb_id, site=site,
            ) from None
        runtime.bombs.record(bomb_id, "payload_error")
        if runtime.breaker.failure(bomb_id):
            runtime.bombs.record(bomb_id, "quarantined")
        if policy.strict:
            raise PayloadError(
                f"bomb {bomb_id} failed at {site}: {exc}",
                bomb_id=bomb_id, site=site,
            ) from exc
        return fallback

    def _bomb_decrypt(self, args, ctx):
        """Decrypt a payload blob; wrong keys crash (bad padding).

        Under containment a failed decrypt (or a quarantined bomb)
        yields the empty-blob sentinel, which ``bomb.load_run`` turns
        into a fall-through -- the host app never sees the failure.
        """
        ciphertext, key, bomb_id = args
        if not isinstance(ciphertext, bytes) or not isinstance(key, bytes):
            raise VMCrash("bomb.decrypt expects bytes arguments")
        runtime = self._runtime
        if runtime.containment is not None and runtime.breaker.is_quarantined(bomb_id):
            runtime.bombs.record(bomb_id, "payload_skipped")
            return b""
        try:
            ciphertext = fault_point(
                "crypto.aes.decrypt", ciphertext, device=runtime.device
            )
            blob = AES128(key).decrypt_cbc(ciphertext, b"\x00" * 16)
        except (BadPaddingError, CryptoError, FaultInjected) as exc:
            return self._contain(
                bomb_id,
                "crypto.aes.decrypt",
                VMCrash(
                    f"payload decryption failed: {exc}",
                    bomb_id=bomb_id, site="crypto.aes.decrypt",
                ),
                fallback=b"",
            )
        runtime.bombs.record(bomb_id, "outer_satisfied")
        return blob

    def _bomb_load_run(self, args, ctx):
        """Load a decrypted dex blob and run its entry with the register
        file array; returns the (possibly mutated) array.

        Only loading is cached, by blob digest: ``bomb.decrypt`` runs
        on every outer-trigger hit, and a repeat of a decrypted blob
        reuses the loaded class.  (Section 8.4 caches the decrypted
        code itself; a decrypt cache here would skip the
        ``crypto.aes.decrypt`` fault point on repeats.)

        This is the containment boundary around payload execution:
        load/deserialize failures and *accidental* interpretation
        failures are contained; deliberate responses (which record a
        ``responded`` marker first) always propagate.
        """
        blob, entry, register_array, bomb_id = args
        if not isinstance(blob, bytes):
            raise VMCrash("bomb.load_run expects a bytes blob")
        runtime = self._runtime
        policy = runtime.containment
        if policy is not None and (
            blob == b"" or runtime.breaker.is_quarantined(bomb_id)
        ):
            # Decrypt already contained this firing (or the bomb is
            # quarantined): resume original branch semantics.
            return fall_through(register_array)
        runtime.bombs.record(bomb_id, "payload_run")
        try:
            method = runtime.load_blob_method(blob, entry, bomb_id=bomb_id)
        except (VMCrash, FaultInjected) as exc:
            site = getattr(exc, "site", None) or "vm.classload"
            return self._contain(
                bomb_id, site, exc, fallback=fall_through(register_array)
            )
        responded_before = runtime.bombs.counts.get(bomb_id, {}).get("responded", 0)
        try:
            result = runtime.interpreter.execute_payload(
                method, [register_array], ctx, policy
            )
        except (VMError, FaultInjected) as exc:
            responded = runtime.bombs.counts.get(bomb_id, {}).get("responded", 0)
            if policy is None or responded > responded_before:
                # Deliberate response (crash / endless loop), or legacy
                # crash-through semantics: never contained.
                raise
            return self._contain(
                bomb_id,
                getattr(exc, "site", None) or "vm.interpreter",
                exc,
                fallback=fall_through(register_array),
            )
        except ReproError:
            raise
        except Exception as exc:  # pragma: no cover - library bug guard
            raise ContainmentBreach(
                f"non-library failure escaped bomb {bomb_id}: {exc!r}"
            ) from exc
        if policy is not None:
            runtime.breaker.success(bomb_id)
        return result

    def _bomb_sha1_hex(self, args, ctx):
        """SHA-1 of a string or bytes value, as hex (code scanning)."""
        (value,) = args
        if isinstance(value, str):
            value = value.encode("utf-8")
        if not isinstance(value, bytes):
            raise VMCrash("bomb.sha1_hex expects bytes or string")
        return sha1_hex(value)

    def _bomb_stego_extract(self, args, ctx):
        """Recover a hidden hex digest fragment from a carrier string.

        The extraction logic ships inside encrypted payload code, so an
        attacker staring at the suspicious-looking strings.xml entry
        still "does not know how to manipulate" it (Section 4.1).
        """
        from repro.apk.stego import extract_from_cover

        carrier, length = args
        if not isinstance(carrier, str):
            raise VMCrash("bomb.stego_extract expects a carrier string")
        try:
            return extract_from_cover(carrier, require_int(length, "stego_extract")).hex()
        except Exception as exc:
            raise VMCrash(f"stego extraction failed: {exc}") from None

    def _get_method_hash(self, args, ctx):
        """SHA-1 hex of a loaded method's instruction stream.

        Backs code-snippet scanning: a bomb can pin the integrity of
        another bomb's prologue (or any method) and detect the code
        instrumentation attack at runtime.
        """
        from repro.dex.hashing import method_instruction_hash

        (name,) = args
        method = self._runtime.find_method(str(name))
        if method is None:
            raise VMCrash(f"get_method_hash: no method {name!r}")
        return method_instruction_hash(method)

    def _bomb_shape_digest(self, args, ctx):
        """Bytes-masked digest of a loaded method (mesh cross-guards).

        Mesh guards live inside encrypted payloads and pin the *shape*
        of a peer bomb's host method -- opcodes, branches, string/int
        constants -- while ignoring bytes-constant contents, so peer
        ciphertext rewrites at protect time do not create a circular
        dependency.  A missing method returns the empty string, which
        matches no expected digest: deleting the peer's method trips
        the guard rather than crashing it.
        """
        from repro.dex.hashing import method_shape_hash

        (name,) = args
        key = ("shape", str(name))
        cached = self._digest_cache.get(key)
        if cached is not None:
            return cached
        self._runtime.cost_units += _DIGEST_COST
        method = self._runtime.find_method(str(name))
        digest = "" if method is None else method_shape_hash(method)
        self._digest_cache[key] = digest
        return digest

    def _bomb_method_digest(self, args, ctx):
        """Full-content digest of a loaded method (mesh content pins).

        Same as ``android.pm.get_method_hash`` but tolerant of a
        missing method (returns ``""`` so the guard compare fails and
        trips instead of crashing inside the payload).  Content pins
        catch ciphertext *blanking*, which the shape digest by design
        does not see.
        """
        from repro.dex.hashing import method_instruction_hash

        (name,) = args
        key = ("content", str(name))
        cached = self._digest_cache.get(key)
        if cached is not None:
            return cached
        self._runtime.cost_units += _DIGEST_COST
        method = self._runtime.find_method(str(name))
        digest = "" if method is None else method_instruction_hash(method)
        self._digest_cache[key] = digest
        return digest

    def _bomb_probe(self, args, ctx):
        """Anti-analysis probes usable as inner triggers.

        ``debugger``: a tracer (the :class:`repro.vm.debugger.Debugger`
        attack surface) is attached to this runtime.
        ``hooks``: the framework handler table differs from its
        post-install baseline -- the vtable-hijack / API-interception
        surface of :mod:`repro.attacks.hooking`.

        Probes return environment *facts*; the emitted trigger code
        OR-combines them with the probabilistic inner condition, so a
        probed bomb evaluates detection whenever analysis tooling is
        present, regardless of the device-population draw.
        """
        (kind,) = args
        runtime = self._runtime
        if kind == "debugger":
            return getattr(runtime, "tracer", None) is not None
        if kind == "hooks":
            base = self._baseline_handlers
            if set(self._handlers) != set(base):
                return True
            return any(self._handlers[name] is not base[name] for name in base)
        raise VMCrash(f"unknown probe kind {kind!r}")

    def _bomb_mark(self, args, ctx):
        """Measurement marker emitted by generated payload code."""
        bomb_id, kind = args
        self._runtime.bombs.record(bomb_id, kind)
        if kind == "detected":
            self._runtime.detections.append(bomb_id)
        return None
