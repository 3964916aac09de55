"""Sharded-store regression tests: layout, corruption, failed writes.

The non-negotiable property under test: a damaged, full or vanished
cache can cost *time* (a miss and a re-run) but never *correctness* (a
wrong or stale result served as a hit), and never crashes a sweep.
"""

import errno
import re
import shutil
import tempfile

import pytest

from repro.exec import ResultCache, RunSpec, run_specs
from repro.exec.cache import DEFAULT_SHARDS

FP = "a" * 64


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP)


def _home_shard(key):
    return f"shard-{int(key[:2], 16) % DEFAULT_SHARDS:03d}"


class TestShardedLayout:
    def test_entries_land_in_shard_dirs(self, cache):
        """A cold store holds shard directories and nothing else: no
        entry outside them and no ``meta.json`` beside them."""
        keys = [f"{i:02x}{'0' * 62}" for i in range(16)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        gen = cache._generation_dir()
        for key in keys:
            assert (gen / _home_shard(key) / f"{key}.pkl").is_file()
        assert all(re.fullmatch(r"shard-\d{3}", p.name) and p.is_dir()
                   for p in gen.iterdir())
        assert not (gen / "meta.json").exists()
        assert len(list(gen.iterdir())) > 1  # keys actually spread out

    def test_default_shard_count(self, cache):
        cache.put("aa" + "0" * 62, 1)
        assert cache.stats().shards == DEFAULT_SHARDS

    def test_same_key_same_shard_across_instances(self, cache):
        key = "0123456789abcdef" * 4
        a = cache._entry_path(key)
        b = ResultCache(cache.root, fingerprint=FP)._entry_path(key)
        assert a == b

    def test_spec_entry_is_its_content_hash_in_its_home_shard(self, cache):
        """The task key is the spec's content hash, unsalted, and its
        entry sits in the shard its first byte picks."""
        spec = RunSpec("selftest_point", {"token": "home"})
        run_specs([spec], cache=cache)
        key = spec.content_hash()
        assert cache.key_for(spec) == key
        (entry,) = cache.root.rglob("*.pkl")
        assert entry.name == f"{key}.pkl"
        assert entry.parent.name == _home_shard(key)
        assert entry.parent.parent == cache._generation_dir()


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


class TestShardStats:
    def test_breakdown_covers_all_entries(self, cache):
        for i in range(12):
            cache.put(f"{i:02x}{'5' * 62}", i)
        stats = cache.stats()
        assert stats.entries == 12 and stats.shards == DEFAULT_SHARDS
        assert sum(s.entries for s in stats.shard_breakdown) == 12
        assert sum(s.bytes for s in stats.shard_breakdown) == stats.bytes
        assert all(s.name.startswith("shard-")
                   for s in stats.shard_breakdown)

    def test_gc_reclaims_sharded_stale_generations(self, tmp_path):
        stale = ResultCache(tmp_path / "c", fingerprint="b" * 64)
        for i in range(4):
            stale.put(f"{i:02x}{'7' * 62}", i)
        live = ResultCache(tmp_path / "c", fingerprint=FP)
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
