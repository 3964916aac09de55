"""Sharded-store regression tests: layout, corruption, failed writes.

The non-negotiable property under test: a damaged, full or vanished
cache can cost *time* (a miss and a re-run) but never *correctness* (a
wrong or stale result served as a hit), and never crashes a sweep.
"""

import errno
import json
import shutil
import tempfile

import pytest

from repro.errors import DCudaUsageError
from repro.exec import ResultCache, RunSpec, run_specs
from repro.exec.cache import DEFAULT_SHARDS

FP = "a" * 64


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP, shards=8)


class TestShardedLayout:
    def test_entries_land_in_shard_dirs(self, cache):
        for i in range(16):
            cache.put(f"{i:02x}{'0' * 62}", i)
        gen = cache._generation_dir()
        flat = [p for p in gen.glob("*.pkl")]
        assert not flat  # nothing outside shards
        shard_dirs = sorted(p.name for p in gen.iterdir()
                            if p.is_dir())
        assert all(name.startswith("shard-") for name in shard_dirs)
        assert len(shard_dirs) > 1  # keys actually spread out

    def test_meta_json_records_shard_count(self, cache):
        cache.put("k" * 64, 1)
        meta = json.loads(
            (cache._generation_dir() / "meta.json").read_text())
        assert meta["shards"] == 8

    def test_disk_shard_count_wins_over_constructor(self, cache):
        cache.put("deadbeef" + "0" * 56, "v")
        # Reopen with a *different* configured width: reads must agree
        # with the width recorded on disk, not the new default.
        reopened = ResultCache(cache.root, fingerprint=FP, shards=64)
        assert reopened.shard_count() == 8
        hit, value = reopened.get("deadbeef" + "0" * 56)
        assert hit and value == "v"

    def test_default_shard_count(self, tmp_path):
        cache = ResultCache(tmp_path / "c", fingerprint=FP)
        cache.put("aa" + "0" * 62, 1)
        assert cache.shard_count() == DEFAULT_SHARDS

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(DCudaUsageError, match="shard count"):
            ResultCache(tmp_path / "c", fingerprint=FP, shards=0)

    def test_same_key_same_shard_across_instances(self, cache):
        key = "0123456789abcdef" * 4
        a = cache._entry_path(key)
        b = ResultCache(cache.root, fingerprint=FP,
                        shards=8)._entry_path(key)
        assert a == b


class TestCorruptShardEntry:
    def test_corrupt_entry_is_miss_and_rerun_never_wrong(self, cache):
        spec = RunSpec("selftest_point", {"token": "gold"})
        first = run_specs([spec], cache=cache)
        assert first.executed == 1
        # Flip bytes in the (sharded) entry.
        (entry,) = cache.root.rglob("*.pkl")
        entry.write_bytes(b"repro-cache-v1\nforged-digest\njunk")
        again = run_specs([spec], cache=cache)
        assert again.executed == 1 and again.cache_hits == 0
        assert again.results == first.results  # re-ran, same answer
        warm = run_specs([spec], cache=cache)  # repaired on the re-run
        assert warm.cache_hits == 1

    def test_truncated_shard_entry_deleted(self, cache):
        cache.put("ab" + "0" * 62, [1, 2])
        (entry,) = cache.root.rglob("*.pkl")
        entry.write_bytes(entry.read_bytes()[:10])
        hit, _ = cache.get("ab" + "0" * 62)
        assert not hit and not entry.exists()


class TestFailedPublish:
    """A write the filesystem refuses costs the entry, never the sweep."""

    @pytest.fixture
    def full_disk(self, monkeypatch):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", no_space)

    def test_enospc_publish_does_not_crash_the_sweep(self, cache,
                                                       full_disk):
        specs = [RunSpec("selftest_point", {"token": t}) for t in "abc"]
        expected = run_specs(specs).results
        report = run_specs(specs, cache=cache)
        assert report.results == expected
        assert report.executed == 3 and report.publish_failures == 3
        assert "3 not cached (publish failed)" in report.summary()
        assert not list(cache.root.rglob("*.pkl"))

    def test_put_reports_refused_write(self, cache, full_disk):
        assert cache.put("aa" + "0" * 62, 1) is False
        assert cache.get("aa" + "0" * 62) == (False, None)

    def test_store_deleted_underneath_is_miss_then_recreated(self, cache):
        key = "ab" + "1" * 62
        assert cache.put(key, "first") is True
        shutil.rmtree(cache.root)
        assert cache.get(key) == (False, None)
        assert cache.put(key, "again") is True
        assert cache.get(key) == (True, "again")
        meta = json.loads(
            (cache._generation_dir() / "meta.json").read_text())
        assert meta["shards"] == 8


class TestShardStats:
    def test_breakdown_covers_all_entries(self, cache):
        for i in range(12):
            cache.put(f"{i:02x}{'5' * 62}", i)
        stats = cache.stats()
        assert stats.entries == 12 and stats.shards == 8
        assert sum(s.entries for s in stats.shard_breakdown) == 12
        assert sum(s.bytes for s in stats.shard_breakdown) == stats.bytes
        assert all(s.name.startswith("shard-")
                   for s in stats.shard_breakdown)

    def test_gc_reclaims_sharded_stale_generations(self, tmp_path):
        stale = ResultCache(tmp_path / "c", fingerprint="b" * 64,
                            shards=4)
        for i in range(4):
            stale.put(f"{i:02x}{'7' * 62}", i)
        live = ResultCache(tmp_path / "c", fingerprint=FP, shards=4)
        live.put("aa" + "8" * 62, "keep")
        removed, freed = live.gc()
        assert removed == 4 and freed > 0
        assert live.stats().stale_entries == 0
        hit, _ = live.get("aa" + "8" * 62)
        assert hit

    def test_clear_reclaims_everything_including_legacy(self, cache):
        cache.put("aa" + "9" * 62, 1)
        ResultCache(cache.root, fingerprint="b" * 64).put("bb" + "9" * 62, 2)
        removed, _ = cache.clear()
        assert removed == 2
        stats = cache.stats()
        assert stats.entries == 0 and stats.stale_entries == 0
