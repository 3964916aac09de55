"""Worker-loss chaos fuzz: kill real workers mid-campaign, digest holds.

The tentpole's hard invariant, attacked with real process murder: over
``FUZZ_ROUNDS`` seeded rounds, K random ``local`` workers are
SIGKILLed while a campaign runs, and the merged digest must equal the
serial digest *every* time — retry-on-worker-loss is allowed to cost
wall-clock, never bits.  The quarantine rule gets the complementary
treatment: a spec that hard-kills its worker on every dispatch must
surface as exactly one typed :class:`~repro.errors.DCudaWorkerError`
after the healthy remainder of the sweep completes — quarantine, not a
hang, and not N cascading failures.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import DCudaWorkerError
from repro.exec import RunSpec, canonical_digest, run_specs
from repro.exec.executors import LocalPoolExecutor

#: Seeded fuzz rounds (the satellite demands >= 20).
FUZZ_ROUNDS = 20
#: Workers killed per round.
KILLS_PER_ROUND = 2

#: The campaign: cheap echo points with a deterministic payload, enough
#: of them that kills land mid-flight, small sleeps so workers are
#: actually *in* a task when the signal arrives.
CAMPAIGN = [RunSpec("selftest_point",
                    {"token": i, "mode": "sleep", "seconds": 0.02},
                    label=f"chaos-{i}")
            for i in range(24)]


def _digest(results):
    return canonical_digest([r["token"] for r in results])


SERIAL_DIGEST = None


def _serial_digest():
    global SERIAL_DIGEST
    if SERIAL_DIGEST is None:
        SERIAL_DIGEST = _digest(run_specs(CAMPAIGN, workers=1).results)
    return SERIAL_DIGEST


def _kill_workers_mid_campaign(executor, rng, kills, stop_event):
    """Assassin thread: SIGKILL random live workers while specs run."""
    killed = 0
    while killed < kills and not stop_event.is_set():
        time.sleep(rng.uniform(0.01, 0.08))
        pids = executor.worker_pids()
        if not pids:
            continue
        victim = rng.choice(pids)
        try:
            os.kill(victim, signal.SIGKILL)
            killed += 1
        except (OSError, ProcessLookupError):
            continue
    return killed


@pytest.mark.slow
class TestWorkerLossFuzz:
    def test_digest_bit_identical_across_20_seeded_kill_rounds(self):
        import random

        want = _serial_digest()
        for seed in range(FUZZ_ROUNDS):
            rng = random.Random(seed)
            ex = LocalPoolExecutor(workers=3)
            stop = threading.Event()
            assassin = threading.Thread(
                target=_kill_workers_mid_campaign,
                args=(ex, rng, KILLS_PER_ROUND, stop), daemon=True)
            try:
                assassin.start()
                report = run_specs(CAMPAIGN, workers=3, executor=ex,
                                   max_attempts=10)
            finally:
                stop.set()
                assassin.join(timeout=5.0)
                ex.stop()
            assert _digest(report.results) == want, \
                f"digest diverged under worker loss (seed {seed})"
            assert report.executor == "local"

    def test_retries_are_reported_when_kills_land(self):
        """At least one fuzz round should actually exercise the retry
        path (sanity check that the assassin is not a no-op)."""
        import random

        rng = random.Random(1234)
        total_retries = 0
        for _ in range(5):
            ex = LocalPoolExecutor(workers=3)
            stop = threading.Event()
            assassin = threading.Thread(
                target=_kill_workers_mid_campaign,
                args=(ex, rng, KILLS_PER_ROUND, stop), daemon=True)
            try:
                assassin.start()
                report = run_specs(CAMPAIGN, workers=3, executor=ex,
                                   max_attempts=10)
            finally:
                stop.set()
                assassin.join(timeout=5.0)
                ex.stop()
            total_retries += report.retries
            if total_retries:
                break
        assert total_retries > 0, \
            "assassin never landed a kill in 5 rounds — harness broken"


@pytest.mark.slow
class TestPoisonedSpecQuarantine:
    def test_spec_failing_on_3_distinct_workers_is_one_typed_error(self):
        specs = [RunSpec("selftest_point", {"token": i},
                         label=f"healthy-{i}") for i in range(4)]
        specs.insert(2, RunSpec("selftest_point", {"mode": "exit"},
                                label="poison-pill"))
        ex = LocalPoolExecutor(workers=2)
        with pytest.raises(DCudaWorkerError) as exc_info:
            run_specs(specs, workers=2, executor=ex, max_attempts=3)
        message = str(exc_info.value)
        assert "quarantined" in message and "poison-pill" in message
        # Three *distinct* worker identities took the hit.
        import re

        workers = re.findall(r"worker-\d+-pid\d+", message)
        assert len(workers) == 3 and len(set(workers)) == 3, message
        assert exc_info.value.code == "DCUDA_WORKER"

    def test_healthy_sweep_unaffected_by_one_poison_round_trip(self):
        """After the quarantine error, the same healthy specs rerun
        cleanly — the executor/quarantine state does not leak."""
        healthy = [RunSpec("selftest_point", {"token": i},
                           label=f"h{i}") for i in range(3)]
        report = run_specs(healthy, workers=2, executor="local")
        assert [r["token"] for r in report.results] == [0, 1, 2]
        assert report.retries == 0
