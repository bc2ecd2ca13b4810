"""User-side simulation, and aggregation over the signed report path."""

import math

import pytest

from repro.crypto import RSAKeyPair
from repro.reporting import (
    AggregatedVerdict,
    ReportClient,
    ReportServer,
    TakedownPolicy,
)
from repro.userside import (
    FirstTriggerStats,
    PlaySession,
    simulate_first_triggers,
)
from repro.vm import DevicePopulation, Runtime

ORIGINAL = "aa" * 20


@pytest.fixture(scope="module")
def attest_key():
    return RSAKeyPair.generate(seed=43)


def counting_server(original_key_hex=ORIGINAL, threshold=3):
    """A server that counts reports forever: no freshness limit and no
    takedown window, whatever clock the reporting devices claim."""
    server = ReportServer(
        shards=1,
        max_report_age=math.inf,
        policy=TakedownPolicy(distinct_devices=threshold, window_seconds=math.inf),
    )
    server.register_app("Game", original_key_hex)
    return server


class TestFirstTrigger:
    def test_pirated_app_triggers_quickly(self, pirated_apk):
        stats = simulate_first_triggers(
            pirated_apk, "Game", runs=6, timeout_seconds=1800, population_seed=3
        )
        assert stats.runs == 6
        assert len(stats.times) >= 4          # most users trigger a bomb
        assert stats.min_time < 600           # within minutes

    def test_stats_accessors(self):
        stats = FirstTriggerStats(app="X", times=[5.0, 15.0], failures=1)
        assert stats.min_time == 5.0
        assert stats.max_time == 15.0
        assert stats.avg_time == 10.0
        assert stats.success_ratio == "2/3"

    def test_session_restart_preserves_history(self, pirated_apk):
        device = DevicePopulation(seed=5).sample()
        session = PlaySession(pirated_apk, device, seed=5)
        session.runtime.bombs.record("fake", "inner_met")
        session._restart(clock=0.0)
        assert "fake" in session.runtime.bombs.bombs_with("inner_met")


class TestAggregation:
    """Report text from devices -> signed envelopes -> one verdict."""

    def _verdict(self, attest_key, *texts):
        """Each text comes from its own device, as the REPORT response
        bytecode would hand it to the device's report client."""
        server = counting_server()
        for index, text in enumerate(texts):
            client = ReportClient(server.submit, attest_key, f"device-{index}", seed=index)
            client.send_text(text)
        server.process()
        return server.verdict("Game")

    def test_clean_when_no_reports(self, attest_key):
        verdict, key = self._verdict(attest_key)
        assert verdict is AggregatedVerdict.CLEAN

    def test_reports_of_original_key_ignored(self, attest_key):
        verdict, _ = self._verdict(attest_key, f"repackaged:Game:b001:key={ORIGINAL}")
        assert verdict is AggregatedVerdict.CLEAN

    def test_suspect_below_threshold(self, attest_key):
        verdict, key = self._verdict(attest_key, f"repackaged:Game:b001:key={'bb' * 20}")
        assert verdict is AggregatedVerdict.SUSPECT
        assert key == "bb" * 20

    def test_takedown_at_threshold(self, attest_key):
        verdict, key = self._verdict(
            attest_key, *[f"repackaged:Game:b001:key={'bb' * 20}"] * 3
        )
        assert verdict is AggregatedVerdict.TAKEDOWN
        assert key == "bb" * 20

    def test_majority_key_wins(self, attest_key):
        texts = [f"repackaged:Game:b001:key={'cc' * 20}"]
        texts += [f"repackaged:Game:b002:key={'bb' * 20}"] * 4
        assert self._verdict(attest_key, *texts)[1] == "bb" * 20

    def test_tie_breaks_on_key_not_insertion_order(self, attest_key):
        # Equal counts: the lexicographically greatest fingerprint wins,
        # whichever order the reports arrived in.
        for first, second in (("bb" * 20, "cc" * 20), ("cc" * 20, "bb" * 20)):
            verdict = self._verdict(
                attest_key,
                f"repackaged:Game:b001:key={first}",
                f"repackaged:Game:b001:key={second}",
            )
            assert verdict[1] == "cc" * 20

    def test_free_text_mentioning_key_equals_not_derailed(self, attest_key):
        # The old rsplit("key=", 1) would have extracted "deadbeef and"
        # from this and missed the real fingerprint entirely.
        verdict, key = self._verdict(
            attest_key,
            f"repackaged:Game:b001:note: my api key=deadbeef and then key={'bb' * 20}",
        )
        assert verdict is AggregatedVerdict.SUSPECT
        assert key == "bb" * 20

    def test_free_text_without_fingerprint_is_noise(self, attest_key):
        verdict, _ = self._verdict(attest_key, "crash log: cache key=beef expired")
        assert verdict is AggregatedVerdict.CLEAN

    def test_structured_wire_prefix_parses(self, attest_key):
        texts = [f"repackaged:v1:app=Game:bomb=b{i}:key={'dd' * 20}" for i in range(3)]
        assert self._verdict(attest_key, *texts) == (AggregatedVerdict.TAKEDOWN, "dd" * 20)

    def test_end_to_end_aggregation(
        self, pirated_apk, attacker_key, developer_key, attest_key
    ):
        """Diverse users play the pirated app; REPORT responses flow to
        the developer's server as signed reports, and any verdict it
        reaches names the attacker's key."""
        from repro.errors import VMError
        from repro.fuzzing import DynodroidGenerator

        server = counting_server(developer_key.public.fingerprint().hex(), threshold=2)
        population = DevicePopulation(seed=9)
        any_detection = False
        for index in range(10):
            runtime = Runtime(
                pirated_apk.dex(),
                device=population.sample(),
                package=pirated_apk.install_view(),
                seed=index,
                report_client=ReportClient(
                    server.submit, attest_key, f"device-{index}", seed=index
                ),
            )
            try:
                runtime.boot()
            except VMError:
                pass
            for event in DynodroidGenerator(pirated_apk.dex(), seed=index).stream(400):
                try:
                    runtime.dispatch(event)
                except VMError:
                    pass
            any_detection = any_detection or bool(runtime.detections)
        assert any_detection
        server.process()
        verdict, key = server.verdict("Game")
        if verdict is not AggregatedVerdict.CLEAN:
            # Reports can only ever name the attacker's key.
            assert key == attacker_key.public.fingerprint().hex()
