"""Fault plans, injectors, and the chaos harness itself."""

import json

import pytest

from repro.chaos import (
    FAULT_SITES,
    ChaosConfig,
    CrashRestartConfig,
    FailoverChaosConfig,
    FaultPlan,
    active_plan,
    clear_plan,
    current_plan,
    fault_point,
    install_plan,
    run_chaos,
    run_crash_restart,
    run_failover_chaos,
)
from repro.cli import EXIT_OK, main
from repro.errors import FaultInjected, ReproError, TransportError


class FakeDevice:
    def __init__(self):
        self.clock = 0.0

    def advance(self, seconds):
        self.clock += seconds


class TestArmValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultPlan(seed=1).arm("crypto.aes.encrpyt", "raise")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="unknown fault mode"):
            FaultPlan(seed=1).arm("crypto.aes.decrypt", "corrupt")

    def test_probability_bounds(self):
        with pytest.raises(ReproError, match="probability"):
            FaultPlan(seed=1).arm("crypto.aes.decrypt", "raise", probability=1.5)

    def test_every_registered_site_arms(self):
        plan = FaultPlan(seed=1)
        for site in FAULT_SITES:
            plan.arm(site, "raise")
        assert plan.armed_sites() == tuple(sorted(FAULT_SITES))


class TestInjectors:
    def test_noop_without_plan(self):
        clear_plan()
        data = b"payload"
        assert fault_point("crypto.aes.decrypt", data) is data

    def test_noop_for_unarmed_site(self):
        plan = FaultPlan(seed=1).arm("report.transport", "raise")
        with active_plan(plan):
            assert fault_point("crypto.aes.decrypt", b"x") == b"x"
        assert plan.fires() == 0

    def test_raise_mode_carries_site(self):
        plan = FaultPlan(seed=1).arm("vm.classload", "raise")
        with active_plan(plan):
            with pytest.raises(FaultInjected) as info:
                fault_point("vm.classload")
        assert info.value.site == "vm.classload"
        assert plan.fires("vm.classload") == 1

    def test_raise_mode_custom_exception(self):
        plan = FaultPlan(seed=1).arm("report.transport", "raise", exc=TransportError)
        with active_plan(plan):
            with pytest.raises(TransportError):
                fault_point("report.transport")

    def test_flip_changes_exactly_magnitude_bits(self):
        plan = FaultPlan(seed=1).arm("crypto.aes.decrypt", "flip", magnitude=3)
        data = bytes(64)
        with active_plan(plan):
            corrupted = fault_point("crypto.aes.decrypt", data)
        assert corrupted != data
        assert len(corrupted) == len(data)
        flipped = sum(bin(a ^ b).count("1") for a, b in zip(data, corrupted))
        assert 1 <= flipped <= 3   # collisions can re-flip a bit back

    def test_flip_corrupts_int_signatures(self):
        # RSA signatures travel as integers; flip must corrupt them
        # rather than degrading to raise inside client.flush.
        plan = FaultPlan(seed=1).arm("client.spool", "flip", magnitude=2)
        signature = 0x1234_5678_9ABC_DEF0
        with active_plan(plan):
            corrupted = fault_point("client.spool", signature)
        assert isinstance(corrupted, int)
        assert corrupted != signature

    def test_truncate_halves(self):
        plan = FaultPlan(seed=1).arm("dex.deserialize", "truncate")
        with active_plan(plan):
            assert fault_point("dex.deserialize", b"abcdefgh") == b"abcd"

    def test_clamp_caps_int(self):
        plan = FaultPlan(seed=1).arm("vm.budget", "clamp", magnitude=40)
        with active_plan(plan):
            assert fault_point("vm.budget", 250_000) == 40
            assert fault_point("vm.budget", 7) == 7

    def test_latency_skews_device_clock(self):
        plan = FaultPlan(seed=1).arm("vm.clock", "latency", magnitude=5)
        device = FakeDevice()
        with active_plan(plan):
            assert fault_point("vm.clock", device=device) is None
        assert device.clock == 5.0

    def test_data_mode_without_data_degrades_to_raise(self):
        plan = FaultPlan(seed=1).arm("vm.framework", "flip")
        with active_plan(plan):
            with pytest.raises(FaultInjected):
                fault_point("vm.framework")

    def test_max_fires_cap(self):
        plan = FaultPlan(seed=1).arm("vm.classload", "raise", max_fires=2)
        with active_plan(plan):
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    fault_point("vm.classload")
            fault_point("vm.classload")   # third check: armed but spent
        assert plan.fires() == 2

    def test_probability_is_deterministic_per_seed(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed).arm(
                "crypto.aes.decrypt", "raise", probability=0.5
            )
            fired = []
            with active_plan(plan):
                for _ in range(32):
                    try:
                        fault_point("crypto.aes.decrypt")
                        fired.append(0)
                    except FaultInjected:
                        fired.append(1)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_log_signature_replays(self):
        def run(seed):
            plan = FaultPlan(seed=seed)
            plan.arm("crypto.aes.decrypt", "flip", probability=0.7, magnitude=2)
            plan.arm("dex.deserialize", "truncate", probability=0.4)
            with active_plan(plan):
                for i in range(16):
                    fault_point("crypto.aes.decrypt", bytes(16 + i))
                    fault_point("dex.deserialize", bytes(32))
            return plan.log_signature()

        assert run(9) == run(9)

    def test_active_plan_restores_previous(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        install_plan(outer)
        try:
            with active_plan(inner):
                assert current_plan() is inner
            assert current_plan() is outer
        finally:
            clear_plan()
        assert current_plan() is None


class TestChaosHarness:
    @pytest.fixture(scope="class")
    def reports(self):
        config = ChaosConfig(
            seed=11, trials=3, events=300, scale=0.3, devices=2,
            profiling_events=200,
        )
        return run_chaos(config), run_chaos(config)

    def test_invariants_hold(self, reports):
        report, _ = reports
        assert report.ok, "\n".join(report.violations)
        assert report.baseline_transparent
        assert report.bombs_injected > 0
        assert len(report.trials) == 3
        assert {r.scenario for r in report.trials} <= {
            "genuine", "pirated", "hostile"
        }

    def test_faults_actually_fired(self, reports):
        report, _ = reports
        assert sum(r.fault_fires for r in report.trials) > 0

    def test_replay_digest_identical(self, reports):
        first, second = reports
        assert first.digest() == second.digest()

    def test_report_serializes(self, reports):
        report, _ = reports
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["digest"] == report.digest()
        assert "replay digest" in report.summary()

    def test_meshed_protection_holds_invariants(self):
        """The fault matrix over a *meshed* protection: genuine runs must
        stay transparent and never trip a mesh guard (peers and pins are
        intact; a contained decrypt fault is not tampering)."""
        config = ChaosConfig(
            seed=11, trials=3, events=300, scale=0.3, devices=2,
            profiling_events=200, mesh=True,
        )
        report = run_chaos(config)
        assert report.ok, "\n".join(report.violations)
        assert report.baseline_transparent


class TestChaosCli:
    def test_chaos_smoke_exits_ok(self, capsys):
        code = main([
            "chaos", "--seed", "11", "--trials", "2",
            "--events", "300", "--scale", "0.3",
        ])
        assert code == EXIT_OK
        assert "invariants: all held" in capsys.readouterr().out

    def test_chaos_json_output(self, capsys):
        code = main([
            "chaos", "--seed", "11", "--trials", "1",
            "--events", "300", "--scale", "0.3", "--json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []


class TestCrashRestart:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        config = CrashRestartConfig(
            seed=11, reports=24, crash_offsets=(5, 12, 21),
            snapshot_every=8,
            data_dir=str(tmp_path_factory.mktemp("crash-state")),
        )
        return run_crash_restart(config), run_crash_restart(config)

    def test_exactly_once_invariants_hold(self, reports):
        report, _ = reports
        assert report.ok, "\n".join(report.violations)
        # scenarios x crash offsets, every one checked.
        assert len(report.trials) == 2 * 3
        assert {r.scenario for r in report.trials} == {"genuine", "pirated"}

    def test_pirated_takes_down_exactly_once_across_crash(self, reports):
        report, _ = reports
        for record in report.trials:
            expected = 1 if record.scenario == "pirated" else 0
            assert record.takedowns == expected

    def test_torn_tails_recovered(self, reports):
        report, _ = reports
        assert all(r.torn_records == 1 for r in report.trials)

    def test_wal_and_snapshot_paths_both_exercised(self, reports):
        report, _ = reports
        assert any(r.wal_replayed > 0 for r in report.trials)
        assert any(r.snapshot_loaded for r in report.trials)

    def test_replay_digest_identical(self, reports):
        first, second = reports
        assert first.digest() == second.digest()

    def test_report_serializes(self, reports):
        report, _ = reports
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["digest"] == report.digest()
        assert "crash-restart" in report.summary()

    def test_cli_crash_restart_exits_ok(self, capsys):
        code = main([
            "chaos", "--crash-restart", "--seed", "11", "--reports", "18",
        ])
        assert code == EXIT_OK
        assert "invariants: all held" in capsys.readouterr().out


def test_cluster_replay_digests_are_pinned():
    """The crash and failover matrices replay bit for bit across commits."""
    crash = run_crash_restart(CrashRestartConfig(seed=11))
    assert crash.digest() == "86888b37f4a947600aa552b0944aeca0013d21ee"
    failover = run_failover_chaos(FailoverChaosConfig(seed=17, reports=18))
    assert failover.digest() == "ca227c85cb590c959ab146bafb5f89b5dd1f83bd"
