"""Response code generation (Section 4.2).

Responses run inside the decrypted payload after detection fires.  Each
emitter appends bytecode to the payload builder; every response first
records a ``responded`` marker so the evaluation can distinguish
detection from response.

The menu matches the paper: crash the process, launch an endless loop,
leak memory through a static reference, null out an app reference so
the app fails later, warn the user, report to the developer, or degrade
responsiveness.

:class:`ResponsePlan` is the mesh extension (ARMAND-style multi-pattern
responses): the same catalog, but optionally *delayed* behind a
fire-after-N-hits counter and/or *gated* on an env-derived residue so
the response is not temporally correlated with the tamper that tripped
it.  The gate reads stable device identity (``android.env.get``), never
``java.rand.next`` -- the instrumentation attack patches the latter
deterministic, and a derandomized gate would hand the attacker a
silence switch.

All randomness used to *draw* a plan is threaded through the per-app
seeded rng (PR 5's byte-identical serial/parallel guarantee); this
module holds no module-level random state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.config import ResponseKind
from repro.dex.builder import MethodBuilder
from repro.errors import InstrumentationError

#: Static field declared on every payload class; the leak response
#: anchors allocations here so the collector can never reclaim them.
LEAK_FIELD = "leak"

#: Static counter field backing delayed responses (per payload class).
TRIP_COUNT_FIELD = "hits"

#: Static flag set once a payload has seen its whole mesh intact; later
#: runs skip guard re-verification (tampering is static, so one clean
#: pass proves the mesh for the process lifetime).
MESH_OK_FIELD = "mesh_ok"

#: Iterations of the slowdown busy-loop per execution.
SLOWDOWN_ITERATIONS = 4000

#: Elements allocated per leak hit.
LEAK_CHUNK = 65536

#: Stable, non-negative int env variables suitable as gate sources --
#: device identity, not session dynamics, so the gate's verdict is
#: constant per device (the paper's "may never be activated on that
#: device" framing) and immune to rand derandomization.
GATE_ENV_SOURCES = (
    "build.serial_low",
    "build.mac_octet",
    "build.board_rev",
    "build.bootloader_rev",
)


@dataclass(frozen=True)
class ResponsePlan:
    """A response plus its delay/probability envelope.

    ``delay_marks``: fire only from the Nth trip onward (a per-payload
    static counter counts trips across firings of the same process).
    ``gate_env``/``gate_modulus``/``gate_residue``: fire only on devices
    where ``env[gate_env] % modulus == residue`` -- an env-derived draw
    that decorrelates responses across the attacker's device farm.
    """

    kind: ResponseKind
    delay_marks: int = 0
    gate_env: Optional[str] = None
    gate_modulus: int = 1
    gate_residue: int = 0

    def describe(self) -> str:
        parts = [self.kind.value]
        if self.delay_marks:
            parts.append(f"after {self.delay_marks} trips")
        if self.gate_env:
            parts.append(
                f"if env[{self.gate_env}] % {self.gate_modulus} == {self.gate_residue}"
            )
        return " ".join(parts)


def draw_response_plan(kind: ResponseKind, rng: random.Random) -> ResponsePlan:
    """Draw a delay/gate envelope for ``kind`` from the per-app rng.

    Roughly a third of plans fire immediately, a third are delayed, and
    a third are gated on device identity (modulus 2 or 3, so the
    response still fires on a substantial share of devices).
    """
    shape = rng.randrange(3)
    if shape == 0:
        return ResponsePlan(kind=kind)
    if shape == 1:
        return ResponsePlan(kind=kind, delay_marks=rng.randint(1, 3))
    modulus = rng.choice((2, 3))
    return ResponsePlan(
        kind=kind,
        gate_env=rng.choice(GATE_ENV_SOURCES),
        gate_modulus=modulus,
        gate_residue=rng.randrange(modulus),
    )


def emit_planned_response(
    builder: MethodBuilder,
    plan: ResponsePlan,
    bomb_id: str,
    payload_class: str,
    app_name: str,
    null_target: Optional[str] = None,
) -> None:
    """Emit ``plan``'s gates followed by its response.

    The ``responded`` marker is recorded (by :func:`emit_response`) only
    *after* every gate passes: a delayed trip that merely increments the
    counter has not responded, so the containment responded-delta check
    keeps treating it as a clean payload run.
    """
    skip = builder.fresh_label("resp_skip")
    if plan.delay_marks > 0:
        count = builder.reg()
        builder.sget(count, f"{payload_class}.{TRIP_COUNT_FIELD}")
        builder.add_lit(count, count, 1)
        builder.sput(count, f"{payload_class}.{TRIP_COUNT_FIELD}")
        limit = builder.const_new(plan.delay_marks)
        builder.if_lt(count, limit, skip)
    if plan.gate_env is not None:
        name_reg = builder.const_new(plan.gate_env)
        value = builder.reg()
        builder.invoke(value, "android.env.get", (name_reg,))
        residue = builder.reg()
        builder.rem_lit(residue, value, plan.gate_modulus)
        expected = builder.const_new(plan.gate_residue)
        builder.if_ne(residue, expected, skip)
    emit_response(builder, plan.kind, bomb_id, payload_class, app_name, null_target)
    builder.label(skip)


def emit_response(
    builder: MethodBuilder,
    kind: ResponseKind,
    bomb_id: str,
    payload_class: str,
    app_name: str,
    null_target: Optional[str] = None,
) -> None:
    """Append response bytecode for ``kind`` to the payload builder.

    ``null_target`` is the qualified app static field the NULL_STATIC
    response clears; required for that kind only.
    """
    id_reg = builder.const_new(bomb_id)
    mark_reg = builder.const_new("responded")
    builder.invoke(None, "bomb.mark", (id_reg, mark_reg))

    if kind is ResponseKind.CRASH:
        message = builder.const_new(f"repackaging response [{bomb_id}]")
        builder.throw(message)
        return

    if kind is ResponseKind.ENDLESS_LOOP:
        spin = builder.fresh_label("spin")
        builder.label(spin)
        builder.goto(spin)
        return

    if kind is ResponseKind.MEMORY_LEAK:
        size = builder.const_new(LEAK_CHUNK)
        array = builder.reg()
        builder.new_array(array, size)
        builder.sput(array, f"{payload_class}.{LEAK_FIELD}")
        return

    if kind is ResponseKind.NULL_STATIC:
        if null_target is None:
            raise InstrumentationError("NULL_STATIC response needs a target field")
        null_reg = builder.const_new(None)
        builder.sput(null_reg, null_target)
        return

    if kind is ResponseKind.WARN:
        message = builder.const_new(
            f"Warning: this copy of {app_name} appears to be repackaged. "
            "Please uninstall it and download the official version."
        )
        builder.invoke(None, "android.ui.alert", (message,))
        return

    if kind is ResponseKind.REPORT:
        from repro.reporting.wire import format_report_text

        message = builder.const_new(format_report_text(app_name, bomb_id))
        key_reg = builder.reg()
        builder.invoke(key_reg, "android.pm.get_public_key", ())
        full = builder.reg()
        builder.invoke(full, "java.str.concat", (message, key_reg))
        builder.invoke(None, "android.net.report", (full,))
        return

    if kind is ResponseKind.SLOWDOWN:
        counter = builder.const_new(0)
        limit = builder.const_new(SLOWDOWN_ITERATIONS)
        top = builder.fresh_label("slow")
        done = builder.fresh_label("slow_done")
        builder.label(top)
        builder.if_ge(counter, limit, done)
        builder.add_lit(counter, counter, 1)
        builder.goto(top)
        builder.label(done)
        return

    raise InstrumentationError(f"unhandled response kind {kind!r}")


