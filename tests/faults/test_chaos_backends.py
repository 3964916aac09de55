"""The chaos contract holds on every communication backend.

The 50-seed contract of ``test_chaos.py`` — complete with bit-identical
numerics or fail with a diagnosed typed error, never hang — was written
against the proxy backend.  This module re-runs the seeded sweep with
the backend axis striped across the seeds (seed *i* runs on backend
``COMM_BACKENDS[i % 3]``), so every backend faces every fault kind the
plans can draw: the device-initiated and stream-triggered data paths
must be exactly as watchdogged and as typed-error-disciplined as the
host proxy they bypass.
"""

import pytest

from repro.faults import FaultsConfig, run_chaos_case
from repro.hw.config import COMM_BACKENDS

SEEDS = range(50)


def _backend_of(seed: int) -> str:
    return COMM_BACKENDS[seed % len(COMM_BACKENDS)]


@pytest.fixture(scope="module")
def sweep():
    return [run_chaos_case(seed=seed, num_nodes=2, ranks_per_device=2,
                           steps=1, comm_backend=_backend_of(seed))
            for seed in SEEDS]


def test_striping_covers_every_backend_with_faults():
    """Each backend gets a fair share of seeds, and the plans really
    fire on each of them (no trivially fault-free stripe)."""
    per_backend = {b: [s for s in SEEDS if _backend_of(s) == b]
                   for b in COMM_BACKENDS}
    assert all(len(seeds) >= 16 for seeds in per_backend.values())


def test_every_backend_satisfies_the_chaos_contract(sweep):
    dirty = [(seed, o) for seed, o in zip(SEEDS, sweep) if not o.clean]
    assert not dirty, (
        f"{len(dirty)} run(s) violated the chaos contract on a backend: "
        f"{[(s, _backend_of(s), o.status, o.error) for s, o in dirty]}")


def test_faults_inject_on_every_backend(sweep):
    for backend in COMM_BACKENDS:
        injected = [o for seed, o in zip(SEEDS, sweep)
                    if _backend_of(seed) == backend and o.injections > 0]
        assert len(injected) >= 10, (
            f"only {len(injected)} seeds injected faults on the "
            f"{backend} backend — the plan horizon no longer matches")


def test_typed_failures_stay_typed_on_every_backend(sweep):
    for seed, o in zip(SEEDS, sweep):
        if o.status != "completed":
            assert o.status in ("DCudaTimeoutError", "DCudaFaultError"), (
                f"seed {seed} on {_backend_of(seed)}: untyped {o.status}")
            assert o.error_code in ("DCUDA_TIMEOUT", "DCUDA_FAULT")


@pytest.mark.parametrize("backend", COMM_BACKENDS[1:])
def test_harsh_budget_is_typed_on_new_backends(backend):
    """Force the typed-error half of the contract on each new backend:
    a tight recovery budget must produce diagnosed failures, not hangs
    or untyped exceptions."""
    outcomes = [
        run_chaos_case(cfg=FaultsConfig(enabled=True, seed=seed,
                                        plan_size=30, max_retries=1),
                       steps=1, comm_backend=backend)
        for seed in range(8)
    ]
    assert all(o.clean for o in outcomes)
    for o in outcomes:
        if o.status != "completed":
            assert o.error_code in ("DCUDA_TIMEOUT", "DCUDA_FAULT")
            assert "t=" in o.error
