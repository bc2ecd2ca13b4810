"""Exception hierarchy shared across the repro packages.

Every package raises subclasses of :class:`ReproError` so callers can
distinguish failures of the reproduction machinery from ordinary Python
errors.  The hierarchy mirrors the subsystem layout: crypto, dex
(bytecode), vm (execution), apk (packaging), core (instrumentation) and
attacks each have a dedicated base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CryptoError(ReproError):
    """Cryptographic failure (bad key size, bad padding, bad signature)."""


class BadPaddingError(CryptoError):
    """Ciphertext decrypted to an invalid PKCS#7 padding.

    This is the error an attacker sees when forcing a bomb payload to
    decrypt under the wrong key.
    """


class DexError(ReproError):
    """Malformed bytecode, assembly error, or serialization failure."""


class DexFormatError(DexError):
    """A serialized dex blob could not be parsed."""


class VMError(ReproError):
    """Runtime failure inside the interpreter."""


class VMCrash(VMError):
    """The app process died (uncaught exception, corrupted state...).

    Repackaging responses intentionally raise this; a deleted woven bomb
    also surfaces as a crash because the original app code is gone.

    ``bomb_id`` and ``site`` are attached when the crash originates in
    bomb infrastructure (payload decrypt, dynamic class load...), so
    chaos harnesses and debuggers can attribute the failure without
    string-parsing the message.
    """

    def __init__(self, message: str = "", bomb_id: str = None, site: str = None):
        super().__init__(message)
        self.bomb_id = bomb_id
        self.site = site


class PayloadError(VMCrash):
    """A bomb payload's infrastructure failed (decrypt, deserialize,
    class load, or interpretation -- not a deliberate response).

    Under a :class:`repro.vm.containment.ContainmentPolicy` these are
    caught at the bomb boundary, recorded as ``payload_error`` events,
    and execution falls through to the original branch semantics; in
    ``strict`` mode the policy re-raises this class for debugging.
    """


class ContainmentBreach(VMError):
    """A non-library exception escaped the bomb containment boundary.

    Containment only ever swallows the library's own taxonomy; anything
    else is a genuine bug in the reproduction machinery and is wrapped
    in this class so it is loud rather than silently degraded.
    """


class MethodNotFound(VMError):
    """Invocation target does not exist in the loaded class set."""


class BudgetExhausted(VMError):
    """The interpreter hit its instruction budget (likely endless loop).

    The endless-loop repackaging response triggers this under test
    harnesses that cap execution.
    """


class ApkError(ReproError):
    """Packaging failure."""


class SignatureError(ApkError):
    """APK signature verification failed."""


class AnalysisError(ReproError):
    """Static analysis failure (unreachable code, malformed CFG...)."""


class InstrumentationError(ReproError):
    """BombDroid could not transform the app."""


class VerificationError(InstrumentationError):
    """Strict-mode gate: the protected app failed verification or lint.

    Raised by ``BombDroid.protect(..., strict=True)`` when the verifier
    or a stealth lint rule reports error-severity diagnostics; the
    ``diagnostics`` attribute carries the findings.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class ReportingError(ReproError):
    """Failure inside the detection-report pipeline (``repro.reporting``)."""


class WireError(ReportingError):
    """A serialized detection report could not be decoded."""


class DurabilityError(ReportingError):
    """The durable ingestion state (WAL / snapshot) is unusable.

    Raised by :mod:`repro.reporting.durability` when recovery cannot
    proceed at all -- e.g. the snapshot was written for a different
    shard count.  Tolerable damage (torn WAL tails, bit-flipped
    records, a corrupt snapshot) is *not* an exception: replay degrades
    gracefully and accounts for it in the ``recovery.*`` metrics.
    """


class TransportError(ReportingError):
    """The report transport is unreachable (simulated network failure).

    Raised by transports handed to :class:`repro.reporting.ReportClient`;
    the client answers with retry/backoff and, past its attempt budget,
    an offline spool.
    """


class FaultInjected(ReproError):
    """An armed :class:`repro.chaos.FaultPlan` fired at a fault point.

    Raised by ``raise``-mode injectors (unless the arm specifies a more
    realistic exception type such as :class:`TransportError`); carries
    the fault site for attribution.
    """

    def __init__(self, message: str = "", site: str = None):
        super().__init__(message)
        self.site = site


class AttackError(ReproError):
    """An adversary analysis failed in an unexpected way."""


class SolverError(AttackError):
    """The constraint solver could not decide a path condition."""


class UnsolvableConstraint(SolverError):
    """The path condition involves an uninvertible (hash) constraint.

    Raised by the symbolic executor's solver when the only way to take a
    branch is to invert a cryptographic hash -- the heart of the paper's
    G1 resilience argument.
    """
