"""The tracing debugger and the Section 2.1 debugging attack."""

import pytest

from repro.attacks import DebuggerAttack
from repro.core.naive import NaiveProtector
from repro.dex import assemble
from repro.vm import Runtime
from repro.vm.debugger import Debugger


SOURCE = """
.class A
.field secret static 0
.method on_key 1
    const r1, 1
    sput r1, A.secret
    invoke r2, android.pm.get_public_key
    invoke _, android.log.i, r2
    return_void
.end
"""


def installed_runtime(tracer):
    from repro.apk import Resources, build_apk
    from repro.crypto import RSAKeyPair

    dex = assemble(SOURCE)
    apk = build_apk(dex, Resources(strings={"app_name": "A"}), RSAKeyPair.generate(seed=41))
    return Runtime(dex, package=apk.install_view(), tracers=[tracer])


class TestDebugger:
    def test_api_watch_traces_back_to_caller(self):
        debugger = Debugger().watch_api("android.pm.get_public_key")
        runtime = installed_runtime(debugger)
        runtime.session().invoke("A.on_key", [1])
        (hit,) = debugger.hits_for("android.pm.get_public_key")
        assert hit.source_method == "A.on_key"
        assert debugger.source_methods("android.pm.get_public_key") == {"A.on_key"}

    def test_static_watch_records_writes(self):
        debugger = Debugger().watch_static("A.secret")
        runtime = installed_runtime(debugger)
        runtime.session().invoke("A.on_key", [1])
        (hit,) = debugger.static_hits
        assert hit.field == "A.secret"
        assert hit.method == "A.on_key"

    def test_breakpoints(self):
        debugger = Debugger().set_breakpoint("A.on_key", 0)
        runtime = installed_runtime(debugger)
        runtime.session().invoke("A.on_key", [1])
        assert debugger.breakpoint_hits == [("A.on_key", 0)]

    def test_trace_ring_bounded(self):
        debugger = Debugger(trace_depth=4)
        runtime = installed_runtime(debugger)
        runtime.session().invoke("A.on_key", [1])
        assert len(debugger.trace_tail(100)) <= 4


class TestDebuggerAttack:
    def test_naive_detection_is_actionable(self, small_apk, developer_key, attacker_key):
        from repro.repack import resign_only

        naive, _ = NaiveProtector(seed=4).protect(small_apk, developer_key)
        pirated = resign_only(naive, attacker_key)
        result = DebuggerAttack(seed=2, session_seconds=300).run(pirated, total_bombs=5)
        assert result.defeated_defense
        assert result.details["actionable_cleartext_sources"]

    def test_bombdroid_hits_trace_to_encrypted_payloads(
        self, pirated_apk, protection_report
    ):
        result = DebuggerAttack(seed=2, session_seconds=600).run(
            pirated_apk, total_bombs=len(protection_report.real_bombs())
        )
        assert not result.defeated_defense
        assert result.details["actionable_cleartext_sources"] == []
        # Whatever the debugger did catch came from Bomb$ payloads.
        assert all("Bomb$" in source for source in result.details["payload_only_sources"])
