"""Shared fixtures and report plumbing for the figure benchmarks.

Each ``test_figN_*`` module regenerates one figure of the paper's
evaluation section: it runs the simulation, prints the figure's data as a
text table (visible with ``pytest benchmarks/ --benchmark-only -s`` and
collected into ``benchmarks/results/``), attaches the rows to
pytest-benchmark's ``extra_info``, and asserts the paper's qualitative
shape (who wins, by roughly what factor, where crossovers fall).

pytest-benchmark measures wall-clock time of the simulation itself; the
scientifically meaningful output is the *simulated* time in the tables.

Every figure's point loop goes through the :func:`engine_sweep` fixture —
one call into the deterministic sweep service (:mod:`repro.exec`) instead
of an inline ``for`` loop — so the whole benchmark suite can be
parallelized (``REPRO_EXEC_WORKERS=4``), moved onto another transport
(``REPRO_EXEC_EXECUTOR=http`` with
``REPRO_EXEC_HOSTS=host:port,...``), or served from the result cache
(``REPRO_EXEC_CACHE=.repro-cache``) without touching any test, and the
tables are bit-identical every way.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.exec import ResultCache, default_workers, run_specs

RESULTS_DIR = Path(__file__).parent / "results"

#: Environment knob: cache directory for benchmark sweeps (no caching
#: when unset — each run simulates from scratch).
CACHE_ENV = "REPRO_EXEC_CACHE"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def exec_workers() -> int:
    """Engine worker count for benchmark sweeps ($REPRO_EXEC_WORKERS)."""
    return default_workers()


@pytest.fixture(scope="session")
def sweep_cache():
    """Shared result cache when $REPRO_EXEC_CACHE names a directory."""
    cache_dir = os.environ.get(CACHE_ENV, "").strip()
    return ResultCache(cache_dir) if cache_dir else None


@pytest.fixture
def engine_sweep(exec_workers, sweep_cache):
    """Run a spec list through the sweep service; returns the result list.

    Results come back in spec order and are bit-identical for any
    executor and worker count, so the figure assertions downstream never
    depend on how the sweep was executed.  The transport is inherited
    from ``$REPRO_EXEC_EXECUTOR`` / ``$REPRO_EXEC_HOSTS`` via
    :func:`repro.exec.run_specs`'s defaults.
    """

    def _sweep(specs):
        return run_specs(specs, workers=exec_workers,
                         cache=sweep_cache).results

    return _sweep


@pytest.fixture
def report(results_dir):
    """Print a table and persist it under benchmarks/results/<name>.txt."""

    def _report(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _report
