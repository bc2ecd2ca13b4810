"""Chaos engineering for the reproduction: faults in, invariants out.

The paper's core promise is *transparency*: instrumentation must never
change a host app's behaviour except when tampering is detected.  This
package stress-tests that promise the way ARMAND-style anti-tampering
work demands -- under a hostile, partially broken environment:

``faults``   the deterministic fault-injection substrate: named fault
             points woven into the AES/KDF, dex deserialization,
             dynamic class loading, framework syscalls, the interpreter
             budget, report transport and the client spool, armed by a
             seeded :class:`FaultPlan`
``harness``  the ``repro chaos`` driver: runs protect -> install ->
             play -> repackage -> report under a seeded fault matrix
             and checks the containment invariants (host output
             unchanged when bombs are dormant or contained, intact
             bombs still detect, the server never double-counts, the
             spool recovers from corruption)
``crash``    the ``repro chaos --crash-restart`` driver: kills the
             durable report server at seeded offsets mid-ingest (torn
             WAL tail included), recovers it from disk, and checks
             exactly-once invariants against an uninterrupted run

``failover`` the ``repro chaos --failover`` driver: kills (or
             partitions) the *leader of a replicated cluster* at seeded
             offsets and lets the heartbeat supervisor heal it --
             automatic promotion, epoch fencing of stale leaders,
             client re-routing -- then checks the verdict math against
             an uninterrupted run
``matrix``   the scaffold all three share: the report frame, and the
             scenario x offset loop and signed report stream of the
             crash and failover matrices

``faults`` is import-light on purpose (the VM and reporting layers call
its ``fault_point`` hook); the harness pulls in the whole pipeline and
is therefore loaded lazily via module ``__getattr__``.
"""

from importlib import import_module

from repro.chaos.faults import (
    FAULT_SITES,
    ArmedFault,
    FaultPlan,
    FaultRecord,
    active_plan,
    clear_plan,
    current_plan,
    fault_point,
    install_plan,
)

#: The drivers pull in the whole pipeline (and the socket layer), so
#: their names resolve lazily: name -> defining module.
_LAZY = {
    **dict.fromkeys(
        ("ChaosConfig", "ChaosReport", "ChaosRunner", "TrialRecord",
         "run_chaos"),
        "harness",
    ),
    **dict.fromkeys(
        ("CrashRestartConfig", "CrashRestartReport", "CrashRestartRunner",
         "CrashTrialRecord", "run_crash_restart"),
        "crash",
    ),
    **dict.fromkeys(
        ("FAILOVER_SCENARIOS", "FailoverChaosConfig", "FailoverChaosReport",
         "FailoverChaosRunner", "FailoverTrialRecord", "run_failover_chaos"),
        "failover",
    ),
}

__all__ = [
    "FAULT_SITES",
    "ArmedFault",
    "FaultPlan",
    "FaultRecord",
    "active_plan",
    "clear_plan",
    "current_plan",
    "fault_point",
    "install_plan",
    *_LAZY,
]


def __getattr__(name: str):
    # Lazy: harness imports the VM, which imports repro.chaos.faults --
    # resolving it here at first use keeps that edge acyclic.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"repro.chaos.{_LAZY[name]}"), name)
