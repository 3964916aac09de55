"""Parallel-vs-serial parity on the repo's own acceptance surfaces.

The engine's determinism claim is only interesting if it holds for the
*real* sweeps the repo ships: the chaos contract (typed-failure envelope
with bit-identical numerics) and the figure points guarded by the golden
simulated-timestamp fixture.  These tests replay miniature versions of
both through serial and 2-worker execution and require exact equality —
``==`` on floats, never ``approx``.
"""

import pytest

from repro.apps.diffusion import DiffusionWorkload
from repro.bench.weak_scaling import weak_scaling_specs
from repro.exec import run_specs
from repro.faults.report import chaos_specs, chaos_sweep

SEEDS = range(4)


class TestChaosParity:
    def test_serial_engine_matches_historical_loop(self):
        """The engine-backed chaos_sweep reproduces per-case execution."""
        from repro.faults.report import run_chaos_case

        specs, _ = chaos_specs(SEEDS)
        via_engine = run_specs(specs).results
        inline = [run_chaos_case(seed, 2, 2) for seed in SEEDS]
        assert via_engine == inline

    def test_front_ends_share_cache_keys(self, tmp_path, capsys):
        """chaos_specs, the chaos suite and ``python -m repro.faults
        report --sweep`` key one shape identically, so their cached
        outcomes are interchangeable."""
        from repro.exec import ResultCache
        from repro.exec.suites import build_suite
        from repro.faults.__main__ import main

        cache = ResultCache(tmp_path / "cache")
        specs, _ = chaos_specs(SEEDS, num_nodes=2, ranks_per_device=2,
                               steps=2)
        keys = [cache.key_for(spec) for spec in specs]
        suite = build_suite("chaos", seeds=len(SEEDS), nodes=2, ranks=2,
                            steps=2)
        assert [cache.key_for(spec) for spec in suite.specs] == keys
        assert main(["report", "--sweep", str(len(SEEDS)), "--nodes", "2",
                     "--ranks", "2", "--steps", "2",
                     "--cache-dir", str(cache.root)]) == 0
        capsys.readouterr()
        # The CLI's sweep stored exactly the entries those keys address.
        assert all(cache.get(key)[0] for key in keys)
        assert cache.stats().entries == len(keys)

    @pytest.mark.slow
    def test_parallel_sweep_bit_identical_to_serial(self):
        serial = chaos_sweep(SEEDS)
        parallel = chaos_sweep(SEEDS, workers=2)
        # ChaosOutcome is a frozen dataclass: == compares every field,
        # including the float simulated times, exactly.
        assert parallel == serial
        for outcome in parallel:
            assert outcome.clean


class TestGoldenWorkloadParity:
    """A golden-fixture-scale figure point through 1 and 2 workers."""

    WL = DiffusionWorkload(ni=8, nj_per_device=8, nk=2, steps=2)

    def _rows(self, workers):
        specs, _ = weak_scaling_specs("stencil", (1, 2), wl=self.WL,
                                      ranks_per_device=4, verify=False)
        return run_specs(specs, workers=workers).results

    @pytest.mark.slow
    def test_stencil_rows_exactly_equal(self):
        serial = self._rows(workers=1)
        parallel = self._rows(workers=2)
        # ScalingRow is frozen: exact float equality on simulated times.
        assert parallel == serial
