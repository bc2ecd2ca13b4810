"""Batch pipeline: determinism, caching, parity, failure isolation.

Protection runs are expensive, so the corpus here is tiny (two small
apps at reduced profiling) and module-scoped fixtures share the
protected outputs across tests.
"""

from __future__ import annotations

import os

import pytest

from repro.apk.io import apk_to_bytes, load_apk
from repro.apk.package import build_apk
from repro.apk.resources import Resources
from repro.core import (
    BombDroid,
    BombDroidConfig,
    ProtectionResult,
    app_identity_digest,
    derive_app_seed,
)
from repro.crypto import RSAKeyPair
from repro.dex import assemble
from repro.pipeline import (
    ArtifactCache,
    BatchJob,
    BatchOptions,
    OutcomeStatus,
    artifact_key,
    config_digest,
    jobs_from_dir,
    protect_batch,
)

SECOND_APP_SOURCE = """
.class Tool
.field uses static 0
.field last static "none"
.method main 0
    const r0, 0
    sput r0, Tool.uses
    return_void
.end
.method on_touch 2
    const r2, 7
    if_ne r0, r2, @skip
    sget r3, Tool.uses
    add_lit r3, r3, 1
    sput r3, Tool.uses
@skip:
    return_void
.end
.method on_text 1
    const r1, "reset"
    invoke r2, java.str.equals, r0, r1
    if_eqz r2, @no
    const r3, 0
    sput r3, Tool.uses
@no:
    sput r0, Tool.last
    return_void
.end
.method on_key 1
    rem_lit r1, r0, 5
    const r2, 2
    if_ne r1, r2, @out
    sget r3, Tool.uses
    add_lit r3, r3, 2
    sput r3, Tool.uses
@out:
    return_void
.end
"""


@pytest.fixture(scope="module")
def batch_config():
    return BombDroidConfig(seed=4, profiling_events=200)


@pytest.fixture(scope="module")
def second_apk(developer_key):
    resources = Resources(
        strings={
            "app_name": "Tool",
            "greeting": "This handy tool application counts your taps all day",
        },
        app_name="Tool",
        author="honest-dev",
    )
    return build_apk(assemble(SECOND_APP_SOURCE), resources, developer_key)


@pytest.fixture(scope="module")
def corpus_jobs(small_apk, second_apk, developer_key):
    return [
        BatchJob.from_apk("game", small_apk, developer_key),
        BatchJob.from_apk("tool", second_apk, developer_key),
    ]


@pytest.fixture(scope="module")
def serial_batch(corpus_jobs, batch_config):
    return protect_batch(corpus_jobs, batch_config, BatchOptions(workers=1))


class TestProtectionResult:
    def test_named_fields(self, protection):
        assert isinstance(protection, ProtectionResult)
        assert protection.apk is protection[0]
        assert protection.report is protection[1]
        assert protection.app_seed != 0
        assert not protection.cache_hit

    def test_tuple_unpacking_compat(self, protection):
        protected, report = protection
        assert protected is protection.apk
        assert report is protection.report
        assert len(protection) == 2

    def test_timings_cover_all_stages(self, protection):
        for stage in ("unpack", "profile", "instrument", "verify", "package"):
            assert stage in protection.timings
        assert protection.total_seconds == sum(protection.timings.values())

    def test_summary_mentions_timing(self, protection):
        assert "s" in protection.summary()


class TestSeedDerivation:
    def test_distinct_apps_distinct_salts(self, serial_batch):
        """Regression: a shared config must not hand two apps the same
        salt stream (pre-fix, rng depended on config.seed alone)."""
        game, tool = serial_batch.outcomes
        game_salts = {b.salt_hex for b in game.result.report.bombs}
        tool_salts = {b.salt_hex for b in tool.result.report.bombs}
        assert not (game_salts & tool_salts)

    def test_app_seed_mixes_identity(self, small_apk, second_apk):
        seed = 4
        assert derive_app_seed(seed, app_identity_digest(small_apk)) != derive_app_seed(
            seed, app_identity_digest(second_apk)
        )

    def test_identity_covers_resources(self, small_apk, developer_key):
        """Two builds sharing a dex but differing in resources are
        different apps (the stego carrier differs)."""
        other = build_apk(
            small_apk.dex(),
            Resources(
                strings={"app_name": "Clone", "greeting": "o" * 60},
                app_name="Clone",
                author="honest-dev",
            ),
            developer_key,
        )
        assert app_identity_digest(other) != app_identity_digest(small_apk)


class TestDeterminism:
    def test_same_app_twice_is_byte_identical(
        self, small_apk, developer_key, batch_config
    ):
        first = BombDroid(batch_config).protect(small_apk, developer_key)
        second = BombDroid(batch_config).protect(small_apk, developer_key)
        assert apk_to_bytes(first.apk) == apk_to_bytes(second.apk)
        assert first.app_seed == second.app_seed

    def test_parallel_matches_serial(self, corpus_jobs, batch_config, serial_batch):
        parallel = protect_batch(
            corpus_jobs, batch_config, BatchOptions(workers=4)
        )
        assert serial_batch.strategy == "serial"
        assert parallel.strategy == "process-pool"
        assert [o.name for o in parallel.outcomes] == [
            o.name for o in serial_batch.outcomes
        ]
        for serial_out, parallel_out in zip(serial_batch.outcomes, parallel.outcomes):
            assert apk_to_bytes(serial_out.result.apk) == apk_to_bytes(
                parallel_out.result.apk
            )
            assert [b.bomb_id for b in serial_out.result.report.bombs] == [
                b.bomb_id for b in parallel_out.result.report.bombs
            ]


class TestCache:
    def test_cold_then_warm(self, corpus_jobs, batch_config, serial_batch, tmp_path):
        cache_dir = str(tmp_path / "cache")
        options = BatchOptions(workers=1, cache_dir=cache_dir)
        cold = protect_batch(corpus_jobs, batch_config, options)
        assert cold.cache_hits == 0
        warm = protect_batch(corpus_jobs, batch_config, options)
        assert warm.cache_hits == len(corpus_jobs)
        for baseline, cached in zip(serial_batch.outcomes, warm.outcomes):
            assert cached.result.cache_hit
            assert cached.result.cache_key
            assert apk_to_bytes(baseline.result.apk) == apk_to_bytes(
                cached.result.apk
            )
            assert [b.bomb_id for b in baseline.result.report.bombs] == [
                b.bomb_id for b in cached.result.report.bombs
            ]

    def test_config_change_misses(self, corpus_jobs, batch_config, tmp_path):
        cache_dir = str(tmp_path / "cache")
        protect_batch(
            corpus_jobs, batch_config, BatchOptions(workers=1, cache_dir=cache_dir)
        )
        other = BombDroidConfig(seed=5, profiling_events=200)
        rerun = protect_batch(
            corpus_jobs, other, BatchOptions(workers=1, cache_dir=cache_dir)
        )
        assert rerun.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, corpus_jobs, batch_config, tmp_path):
        cache_dir = str(tmp_path / "cache")
        options = BatchOptions(workers=1, cache_dir=cache_dir)
        protect_batch(corpus_jobs, batch_config, options)
        for dirpath, _, files in os.walk(cache_dir):
            for name in files:
                with open(os.path.join(dirpath, name), "w") as handle:
                    handle.write("{not json")
        rerun = protect_batch(corpus_jobs, batch_config, options)
        assert rerun.cache_hits == 0
        assert rerun.ok_count == len(corpus_jobs)

    def test_key_depends_on_all_inputs(self, small_apk, developer_key, batch_config):
        digest = app_identity_digest(small_apk)
        base = artifact_key(digest, batch_config, developer_key)
        assert base != artifact_key(
            digest, batch_config, developer_key, strict=True
        )
        assert base != artifact_key(
            digest, BombDroidConfig(seed=99, profiling_events=200),
            developer_key,
        )
        assert base != artifact_key(
            digest, batch_config, RSAKeyPair.generate(seed=12)
        )
        assert config_digest(batch_config) == config_digest(
            BombDroidConfig(seed=4, profiling_events=200)
        )

    def test_cache_roundtrip_raw(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        assert cache.get("ab" * 20) is None
        cache.put("ab" * 20, b"\x01\x02", {"x": 1}, app_seed=9)
        entry = cache.get("ab" * 20)
        assert entry.apk_bytes == b"\x01\x02"
        assert entry.report == {"x": 1}
        assert entry.app_seed == 9
        assert len(cache) == 1


class TestFailureIsolation:
    def test_corrupt_apk_crashes_only_itself(self, corpus_jobs, batch_config):
        bad = BatchJob(
            name="bad",
            apk_bytes=b"not an apk",
            developer_key=corpus_jobs[0].developer_key,
        )
        jobs = [corpus_jobs[0], bad, corpus_jobs[1]]
        result = protect_batch(jobs, batch_config, BatchOptions(workers=1))
        assert [o.status for o in result.outcomes] == [
            OutcomeStatus.OK,
            OutcomeStatus.CRASHED,
            OutcomeStatus.OK,
        ]
        crashed = result.outcomes[1]
        assert crashed.error_type == "ApkError"
        assert crashed.result is None
        assert result.failed_count == 1

    def test_crashes_isolated_across_workers(self, corpus_jobs, batch_config):
        bad = BatchJob(
            name="bad",
            apk_bytes=b"not an apk",
            developer_key=corpus_jobs[0].developer_key,
        )
        result = protect_batch(
            list(corpus_jobs) + [bad], batch_config, BatchOptions(workers=2)
        )
        assert result.ok_count == len(corpus_jobs)
        assert result.outcomes[-1].status is OutcomeStatus.CRASHED

    def test_metrics_aggregated(self, corpus_jobs, batch_config):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        protect_batch(
            corpus_jobs, batch_config, BatchOptions(workers=1), metrics=registry
        )
        assert registry.counter("pipeline.apps").value == len(corpus_jobs)
        assert registry.counter("pipeline.ok").value == len(corpus_jobs)
        snapshot = registry.snapshot()
        assert "pipeline.protect_seconds" in snapshot
        assert "pipeline.stage.instrument" in snapshot


class TestCorpusDir:
    def test_jobs_from_dir_roundtrip(
        self, small_apk, second_apk, developer_key, tmp_path
    ):
        from repro.apk.io import save_apk_with_manifest

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_apk_with_manifest(small_apk, str(corpus / "game.rapk"))
        save_apk_with_manifest(second_apk, str(corpus / "tool.rapk"))
        (corpus / "notes.txt").write_text("ignored")
        jobs = jobs_from_dir(str(corpus), developer_key)
        assert [job.name for job in jobs] == ["game", "tool"]
        assert jobs[0].content_digest() != jobs[1].content_digest()


class TestCliProtectBatch:
    def test_end_to_end(self, small_apk, second_apk, tmp_path, capsys):
        from repro.apk.io import save_apk_with_manifest
        from repro.cli import main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_apk_with_manifest(small_apk, str(corpus / "game.rapk"))
        save_apk_with_manifest(second_apk, str(corpus / "tool.rapk"))
        out_dir = tmp_path / "protected"
        argv = [
            "protect-batch",
            "--corpus", str(corpus),
            "--out", str(out_dir),
            "--key-seed", "11",
            "--seed", "4",
            "--profiling-events", "200",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert sorted(os.listdir(out_dir)) == ["game.rapk", "tool.rapk"]
        first = capsys.readouterr().out
        assert "protected 2/2" in first

        # Warm rerun: everything from cache, outputs byte-identical.
        out2 = tmp_path / "protected2"
        argv[argv.index(str(out_dir))] = str(out2)
        assert main(argv) == 0
        assert "2 from cache" in capsys.readouterr().out
        for name in ("game.rapk", "tool.rapk"):
            a = apk_to_bytes(load_apk(str(out_dir / name)))
            b = apk_to_bytes(load_apk(str(out2 / name)))
            assert a == b


    def test_one_truncated_file_crashes_only_its_app(
        self, small_apk, second_apk, tmp_path, capsys
    ):
        from repro.apk.io import save_apk_with_manifest
        from repro.cli import EXIT_FAILURE, main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_apk_with_manifest(small_apk, str(corpus / "game.rapk"))
        save_apk_with_manifest(second_apk, str(corpus / "tool.rapk"))
        blob = apk_to_bytes(small_apk)
        (corpus / "torn.rapk").write_bytes(blob[: len(blob) // 2])
        out_dir = tmp_path / "protected"
        argv = [
            "protect-batch",
            "--corpus", str(corpus),
            "--out", str(out_dir),
            "--key-seed", "11",
            "--seed", "4",
            "--profiling-events", "200",
        ]
        assert main(argv) == EXIT_FAILURE
        assert sorted(os.listdir(out_dir)) == ["game.rapk", "tool.rapk"]
        captured = capsys.readouterr()
        assert "protected 2/3 app(s)" in captured.out
        assert "0 verification failure(s), 1 crash(es)" in captured.out
        assert "torn: crashed (ApkError: torn is truncated" in captured.err

class TestStrategy:
    def test_unpicklable_key_falls_back_to_serial(
        self, corpus_jobs, batch_config, serial_batch
    ):
        """A task that cannot cross the process boundary forces serial
        even when the caller asked for a pool -- recorded in both
        ``serial_fallback`` (why) and ``strategy`` (what ran)."""

        class UnpicklableKey:
            def __init__(self, inner):
                object.__setattr__(self, "_inner", inner)

            def __reduce__(self):
                raise TypeError("refuses to pickle")

            def __getattr__(self, name):
                return getattr(object.__getattribute__(self, "_inner"), name)

        bad_key = UnpicklableKey(corpus_jobs[0].developer_key)
        jobs = [
            BatchJob(
                name=corpus_jobs[0].name,
                apk_bytes=corpus_jobs[0].apk_bytes,
                developer_key=bad_key,
            )
        ]
        result = protect_batch(jobs, batch_config, BatchOptions(workers=4))
        assert result.strategy == "serial"
        assert result.serial_fallback is True
        assert result.outcomes[0].ok
        assert result.metrics["pipeline.serial_fallbacks"] == 1

    def test_worker_frame_roundtrips(self, corpus_jobs, batch_config):
        """The framed entry point produces the same payload dict as the
        raw worker for the same task."""
        import pickle

        from repro.pipeline.batch import _protect_worker, _protect_worker_frame

        job = corpus_jobs[0]
        task = (job.name, job.apk_bytes, job.developer_key, batch_config, False)
        direct = _protect_worker(task)
        framed = _protect_worker_frame(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
        assert framed["status"] == direct["status"] == OutcomeStatus.OK.value
        assert framed["apk_bytes"] == direct["apk_bytes"]
        assert framed["report"] == direct["report"]
        assert framed["app_seed"] == direct["app_seed"]


class TestAutoWorkers:
    def test_auto_on_single_core_degrades_to_serial(
        self, corpus_jobs, batch_config, serial_batch, monkeypatch
    ):
        import repro.pipeline.batch as batch_mod

        monkeypatch.setattr(batch_mod.os, "cpu_count", lambda: 1)
        result = protect_batch(
            corpus_jobs, batch_config, BatchOptions(workers="auto")
        )
        assert result.workers == 1
        assert result.serial_fallback is True
        assert result.strategy == "serial"
        assert "(serial fallback)" in result.summary()
        assert result.metrics["pipeline.serial_fallbacks"] == 1
        # The decision changes scheduling only, never output bytes.
        for auto_out, serial_out in zip(result.outcomes, serial_batch.outcomes):
            assert apk_to_bytes(auto_out.result.apk) == apk_to_bytes(
                serial_out.result.apk
            )

    def test_auto_on_multi_core_caps_at_job_count(self, monkeypatch):
        import repro.pipeline.batch as batch_mod

        from repro.pipeline import resolve_workers

        monkeypatch.setattr(batch_mod.os, "cpu_count", lambda: 8)
        assert resolve_workers("auto", 2) == (2, False)
        assert resolve_workers("auto", 100) == (8, False)
        assert resolve_workers("auto", 0) == (1, False)

    def test_auto_none_cpu_count_is_serial(self, monkeypatch):
        import repro.pipeline.batch as batch_mod

        from repro.pipeline import resolve_workers

        monkeypatch.setattr(batch_mod.os, "cpu_count", lambda: None)
        assert resolve_workers("auto", 4) == (1, True)

    def test_explicit_workers_validated(self):
        from repro.pipeline import resolve_workers

        assert resolve_workers(3, 10) == (3, False)
        with pytest.raises(ValueError, match="int or 'auto'"):
            resolve_workers("turbo", 4)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0, 4)
        with pytest.raises(ValueError, match="int or 'auto'"):
            resolve_workers(True, 4)

    def test_cli_accepts_auto(self, corpus_jobs, batch_config, tmp_path, capsys):
        from repro.cli import _workers_arg

        assert _workers_arg("auto") == "auto"
        assert _workers_arg("4") == 4
