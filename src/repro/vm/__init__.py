"""Execution substrate: a register-machine VM standing in for ART.

Components:

``values``       runtime value helpers (32-bit int semantics, instances)
``device``       device/environment profiles and the population sampler
                 (the diversity that inner triggers exploit)
``events``       UI event model consumed by fuzzers and play sessions
``framework``    the Android-framework API surface (``android.*``,
                 ``java.*`` and the ``bomb.*`` helpers)
``dispatch``     the dispatch-table compiler (one step closure per
                 instruction, inline-cache call sites) behind the
                 interpreter
``tier2``        warm methods compiled to one Python function each
``interpreter``  the bytecode interpreter with tracing hooks
``sessions``     ExecutionContext/SessionResult (the session API) and
                 the batched real-play-session engine
``runtime``      class loading (including dynamic loading of decrypted
                 bomb payloads), static state, app installation
``containment``  graceful degradation for bomb-infrastructure failures
                 (ContainmentPolicy, per-bomb circuit breaker)
"""

from repro.vm.values import Instance, to_int32, truthy
from repro.vm.device import (
    DeviceProfile,
    DevicePopulation,
    ENV_DOMAINS,
    attacker_lab_profiles,
)
from repro.vm.events import Event, EventKind, handler_name_for
from repro.vm.interpreter import (
    CompositeTracer,
    CountingTracer,
    CoverageTracer,
    Interpreter,
    Tracer,
)
from repro.vm.sessions import (
    ExecutionContext,
    PlayOutcome,
    SessionEngine,
    SessionResult,
)
from repro.vm.containment import CircuitBreaker, ContainmentPolicy, fall_through
from repro.vm.runtime import Runtime, BombRegistry, BombEvent

__all__ = [
    "CompositeTracer",
    "ExecutionContext",
    "PlayOutcome",
    "SessionEngine",
    "SessionResult",
    "Instance",
    "to_int32",
    "truthy",
    "DeviceProfile",
    "DevicePopulation",
    "ENV_DOMAINS",
    "attacker_lab_profiles",
    "Event",
    "EventKind",
    "handler_name_for",
    "Interpreter",
    "Tracer",
    "CoverageTracer",
    "CountingTracer",
    "CircuitBreaker",
    "ContainmentPolicy",
    "fall_through",
    "Runtime",
    "BombRegistry",
    "BombEvent",
]
