"""Tests for the content-addressed result cache (corruption, fingerprints,
gc)."""

import pytest

from repro.exec import ResultCache, RunSpec, run_specs
from repro.exec.fingerprint import source_fingerprint

FP_A = "a" * 64
FP_B = "b" * 64


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP_A)


def _entry_files(cache):
    return sorted(cache.root.rglob("*.pkl"))


class TestRoundTrip:
    def test_put_get(self, cache):
        cache.put("k1", {"value": 42}, label="t")
        hit, result = cache.get("k1")
        assert hit and result == {"value": 42}

    def test_absent_key_misses(self, cache):
        hit, result = cache.get("missing")
        assert not hit and result is None

    def test_unpicklable_result_silently_not_cached(self, cache):
        cache.put("k", lambda: None)
        hit, _ = cache.get("k")
        assert not hit


class TestCorruptionRecovery:
    """Any on-disk deviation is a miss plus best-effort deletion."""

    def _one_entry(self, cache):
        cache.put("k", [1, 2, 3])
        (path,) = _entry_files(cache)
        return path

    def test_truncated_entry_is_miss_and_deleted(self, cache):
        path = self._one_entry(cache)
        path.write_bytes(path.read_bytes()[:20])
        hit, _ = cache.get("k")
        assert not hit
        assert not path.exists()

    def test_flipped_payload_byte_is_miss(self, cache):
        path = self._one_entry(cache)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        hit, _ = cache.get("k")
        assert not hit
        assert not path.exists()

    def test_bad_magic_is_miss(self, cache):
        path = self._one_entry(cache)
        path.write_bytes(b"not-a-cache-entry\njunk\njunk")
        hit, _ = cache.get("k")
        assert not hit

    def test_engine_reruns_after_corruption(self, cache):
        spec = RunSpec("selftest_point", {"mode": "sleep", "seconds": 0.0})
        first = run_specs([spec], cache=cache)
        assert first.executed == 1
        for path in _entry_files(cache):
            path.write_bytes(b"garbage")
        again = run_specs([spec], cache=cache)
        assert again.executed == 1 and again.cache_hits == 0
        assert again.results == first.results
        # ...and the re-run repaired the entry.
        warm = run_specs([spec], cache=cache)
        assert warm.cache_hits == 1


class TestFingerprintInvalidation:
    def test_different_fingerprints_do_not_share(self, tmp_path):
        old = ResultCache(tmp_path / "cache", fingerprint=FP_A)
        old.put("k", "result-from-old-code")
        new = ResultCache(tmp_path / "cache", fingerprint=FP_B)
        hit, _ = new.get("k")
        assert not hit
        # The old generation is untouched (no destructive invalidation).
        hit, result = old.get("k")
        assert hit and result == "result-from-old-code"

    def test_source_fingerprint_tracks_content(self, tmp_path):
        (tmp_path / "mod.py").write_text("X = 1\n")
        fp1 = source_fingerprint(tmp_path, refresh=True)
        assert fp1 == source_fingerprint(tmp_path)  # memoized
        (tmp_path / "mod.py").write_text("X = 2\n")
        fp2 = source_fingerprint(tmp_path, refresh=True)
        assert fp1 != fp2

    def test_source_fingerprint_tracks_new_and_renamed_files(self, tmp_path):
        (tmp_path / "a.py").write_text("pass\n")
        fp1 = source_fingerprint(tmp_path, refresh=True)
        (tmp_path / "b.py").write_text("pass\n")
        fp2 = source_fingerprint(tmp_path, refresh=True)
        assert fp1 != fp2
        (tmp_path / "b.py").rename(tmp_path / "c.py")
        fp3 = source_fingerprint(tmp_path, refresh=True)
        assert fp3 not in (fp1, fp2)

    def test_live_fingerprint_is_default(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.fingerprint == source_fingerprint()


class TestMaintenance:
    def test_stats_and_gc(self, tmp_path):
        stale = ResultCache(tmp_path / "cache", fingerprint=FP_B)
        stale.put("old1", 1)
        stale.put("old2", 2)
        live = ResultCache(tmp_path / "cache", fingerprint=FP_A)
        live.put("new", 3)

        stats = live.stats()
        assert stats.entries == 1 and stats.stale_entries == 2
        assert stats.generations == 2
        assert stats.bytes > 0 and stats.stale_bytes > 0

        removed, freed = live.gc()
        assert removed == 2 and freed > 0
        after = live.stats()
        assert after.stale_entries == 0 and after.entries == 1
        hit, _ = live.get("new")
        assert hit

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint=FP_A)
        cache.put("k1", 1)
        cache.put("k2", 2)
        removed, _ = cache.clear()
        assert removed == 2
        assert cache.stats().entries == 0

    def test_gc_on_missing_root_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created", fingerprint=FP_A)
        assert cache.gc() == (0, 0)
        assert cache.clear() == (0, 0)
        assert cache.stats().entries == 0
