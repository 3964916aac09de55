"""Tests for the deterministic sweep engine: serial/parallel bit-identity,
crash isolation, timeouts, cache interplay."""

import random

import pytest

from repro.errors import (
    DCudaTimeoutError,
    DCudaUsageError,
    DCudaWorkerError,
)
from repro.exec import (
    ResultCache,
    RunSpec,
    canonical_digest,
    default_workers,
    run_specs,
)

#: Cheap but real simulation points (~10 ms each): enough structure for
#: results to be distinguishable, cheap enough to fuzz across pools.
FUZZ_SPECS = [
    RunSpec("pingpong_point",
            dict(shared_mem=shared_mem, packet_bytes=size, iterations=3),
            label=f"fuzz:{shared_mem}:{size}")
    for shared_mem in (True, False) for size in (1, 64, 4096)
]


def _digest(results):
    return canonical_digest([(r.latency, r.bandwidth, r.packet_bytes)
                             for r in results])


class TestSerial:
    def test_results_in_spec_order(self):
        report = run_specs(FUZZ_SPECS)
        assert report.tasks == report.executed == len(FUZZ_SPECS)
        assert report.workers == 1 and report.cache_hits == 0
        for spec, result in zip(FUZZ_SPECS, report.results):
            assert result.packet_bytes == spec.params["packet_bytes"]

    def test_serial_exceptions_propagate_raw(self):
        # The in-process path keeps the historical debugging behaviour:
        # no DCudaWorkerError wrapping (that is the worker's job).
        with pytest.raises(RuntimeError, match="boom"):
            run_specs([RunSpec("selftest_point",
                               {"mode": "raise", "message": "boom"})])

    def test_unknown_entrypoint_is_usage_error(self):
        with pytest.raises(DCudaUsageError, match="unknown entrypoint"):
            run_specs([RunSpec("no_such_point")])

    def test_empty_sweep(self):
        report = run_specs([])
        assert report.results == [] and report.cache_hit_rate == 0.0


class TestWorkersKnob:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        assert default_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "4")
        assert default_workers() == 4

    def test_invalid_env_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "many")
        with pytest.raises(DCudaUsageError):
            default_workers()


class TestCacheInterplay:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_specs(FUZZ_SPECS, cache=cache)
        warm = run_specs(FUZZ_SPECS, cache=cache)
        assert cold.executed == len(FUZZ_SPECS) and cold.cache_hits == 0
        assert warm.executed == 0
        assert warm.cache_hits == len(FUZZ_SPECS)
        assert warm.cache_hit_rate == 1.0
        assert _digest(cold.results) == _digest(warm.results)

    def test_cache_accepts_path(self, tmp_path):
        path = tmp_path / "cache-by-path"
        run_specs(FUZZ_SPECS[:2], cache=path)
        warm = run_specs(FUZZ_SPECS[:2], cache=str(path))
        assert warm.cache_hits == 2


def test_shared_takes_only_an_empty_mapping():
    """An entrypoint reads nothing but its params, so a non-empty
    ``shared`` could reach no task: it is refused before anything runs.
    ``shared={}`` (the shape ``chaos_specs`` hands back) and ``None``
    run."""
    specs = [RunSpec("selftest_point", {"token": "s"}, label="echo:s")]
    with pytest.raises(DCudaUsageError, match="shared"):
        run_specs(specs, shared={"x": 1})
    with pytest.raises(DCudaUsageError, match="shared"):
        run_specs(specs, shared=[("x", 1)])
    want = run_specs(specs).results
    assert run_specs(specs, shared={}).results == want
    assert run_specs(specs, shared=None).results == want


@pytest.mark.slow
class TestParallel:
    """Worker-process behaviour: interpreter startup makes these slow."""

    def test_bit_identity_across_worker_counts_and_order(self):
        serial = run_specs(FUZZ_SPECS, workers=1)
        want = _digest(serial.results)
        for workers in (2, 4):
            report = run_specs(FUZZ_SPECS, workers=workers)
            assert report.workers == workers
            assert _digest(report.results) == want

        # Shuffled submission order: result i still belongs to spec i.
        shuffled = FUZZ_SPECS[:]
        random.Random(7).shuffle(shuffled)
        report = run_specs(shuffled, workers=2)
        by_label = {s.label: r for s, r in zip(shuffled, report.results)}
        for spec, result in zip(FUZZ_SPECS, serial.results):
            assert _digest([by_label[spec.label]]) == _digest([result])

    def test_worker_crash_wrapped_in_typed_error(self):
        specs = [RunSpec("selftest_point",
                         {"mode": "raise", "message": "kaboom"},
                         label="crasher"),
                 RunSpec("selftest_point", {"mode": "sleep", "seconds": 0.0})]
        with pytest.raises(DCudaWorkerError) as exc_info:
            run_specs(specs, workers=2)
        message = str(exc_info.value)
        assert "crasher" in message and "kaboom" in message
        assert exc_info.value.code == "DCUDA_WORKER"

    def test_stuck_worker_times_out_typed(self, leaked_children):
        nap = {"mode": "sleep", "seconds": 60.0}
        specs = [RunSpec("selftest_point", nap, label="stuck"),
                 RunSpec("selftest_point", nap)]
        with pytest.raises(DCudaTimeoutError, match="stuck"):
            run_specs(specs, workers=2, timeout=3.0)
        # Both sleepers were killed and reaped, not left running.
        assert leaked_children() == set()

    def test_parallel_results_feed_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_specs(FUZZ_SPECS, workers=2, cache=cache)
        assert cold.cache_hits == 0
        warm = run_specs(FUZZ_SPECS, workers=1, cache=cache)
        assert warm.cache_hits == len(FUZZ_SPECS)
        assert _digest(cold.results) == _digest(warm.results)
