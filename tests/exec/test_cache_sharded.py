"""Store regression tests: layout, corruption, failed writes, and
reclaiming generations written in the earlier sharded layout.

The non-negotiable property under test: a damaged, full or vanished
cache can cost *time* (a miss and a re-run) but never *correctness* (a
wrong or stale result served as a hit), and never crashes a sweep.
"""

import errno
import shutil
import tempfile

import pytest

from repro.exec import ResultCache, RunSpec, run_specs
from repro.exec.coordinator import STATUS_FILENAME

FP = "a" * 64


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP)


def _entry(cache, key):
    """The flat path of *key*'s entry: ``<gen>/<key>.pkl``."""
    return cache._generation_dir() / f"{key}.pkl"


def _shard(cache):
    """Move a generation's entries into the earlier sharded layout,
    ``<gen>/shard-XXX/<key>.pkl`` (16 shards picked by the key's first
    byte), as a store written by an older version holds them."""
    gen = cache._generation_dir()
    for entry in list(gen.glob("*.pkl")):
        shard = gen / f"shard-{int(entry.name[:2], 16) % 16:03d}"
        shard.mkdir(exist_ok=True)
        entry.rename(shard / entry.name)


class TestShardedLayout:
    """A store written now has one shard per generation: the generation
    directory itself is every entry's home, ``<gen>/<key>.pkl``."""

    def test_entries_land_in_shard_dirs(self, cache):
        """A cold store holds ``<key>.pkl`` files in the generation
        directory and nothing else: no subdirectory and no
        ``meta.json``."""
        keys = [f"{i:02x}{'0' * 62}" for i in range(16)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        gen = cache._generation_dir()
        assert gen.name == FP[:16]
        assert all(_entry(cache, key).is_file() for key in keys)
        assert all(p.is_file() for p in gen.iterdir())
        assert sorted(p.name for p in gen.iterdir()) == sorted(
            f"{key}.pkl" for key in keys)
        assert not (gen / "meta.json").exists()

    def test_spec_entry_is_its_content_hash_in_its_home_shard(self, cache):
        """The task key is the spec's content hash, unsalted, and its
        entry sits directly in the generation directory.  Beside the
        generation sits only the sweep's progress file."""
        specs = [RunSpec("selftest_point", {"token": t}) for t in "abcd"]
        run_specs(specs, cache=cache)
        gen = cache._generation_dir()
        assert all(cache.key_for(spec) == spec.content_hash()
                   for spec in specs)
        entries = list(cache.root.rglob("*.pkl"))
        assert all(entry.parent == gen for entry in entries)
        assert sorted(entry.name for entry in entries) == sorted(
            f"{spec.content_hash()}.pkl" for spec in specs)
        assert sorted(p.name for p in cache.root.iterdir()) == sorted(
            [gen.name, STATUS_FILENAME])


class TestCorruptShardEntry:
    def test_corrupt_entry_is_miss_and_rerun_never_wrong(self, cache):
        spec = RunSpec("selftest_point", {"token": "gold"})
        first = run_specs([spec], cache=cache)
        assert first.executed == 1
        # Flip bytes in the entry.
        entry = _entry(cache, spec.content_hash())
        entry.write_bytes(b"repro-cache-v1\nforged-digest\njunk")
        again = run_specs([spec], cache=cache)
        assert again.executed == 1 and again.cache_hits == 0
        assert again.results == first.results  # re-ran, same answer
        warm = run_specs([spec], cache=cache)  # repaired on the re-run
        assert warm.cache_hits == 1

    def test_truncated_shard_entry_deleted(self, cache):
        key = "ab" + "0" * 62
        cache.put(key, [1, 2])
        entry = _entry(cache, key)
        entry.write_bytes(entry.read_bytes()[:10])
        hit, _ = cache.get(key)
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
        assert not any(_entry(cache, s.content_hash()).exists()
                       for s in specs)
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
        assert _entry(cache, key).is_file()


class TestShardStats:
    """A generation left in the earlier sharded layout still counts in
    the census, and ``gc``/``clear`` still reclaim it."""

    def test_gc_reclaims_sharded_stale_generations(self, tmp_path):
        stale = ResultCache(tmp_path / "c", fingerprint="b" * 64)
        for i in range(4):
            stale.put(f"{i:02x}{'7' * 62}", i)
        _shard(stale)
        live = ResultCache(tmp_path / "c", fingerprint=FP)
        live.put("aa" + "8" * 62, "keep")
        assert live.stats().stale_entries == 4
        removed, freed = live.gc()
        assert removed == 4 and freed > 0
        assert live.stats().stale_entries == 0
        assert not stale._generation_dir().exists()
        hit, _ = live.get("aa" + "8" * 62)
        assert hit

    def test_clear_reclaims_everything_including_legacy(self, cache):
        cache.put("aa" + "9" * 62, 1)
        legacy = ResultCache(cache.root, fingerprint="b" * 64)
        legacy.put("bb" + "9" * 62, 2)
        _shard(legacy)
        removed, _ = cache.clear()
        assert removed == 2
        stats = cache.stats()
        assert stats.entries == 0 and stats.stale_entries == 0
        assert not list(cache.root.iterdir())
