"""The process transports' lifecycle: a poison kills only itself, and
no worker or client thread outlives a sweep, however the sweep ends.

``run_specs(workers=2)`` builds the default same-host executor, the
pipe fleet.  A worker death costs an attempt only to the job that
worker held, and :meth:`~repro.exec.executors.LocalPoolExecutor.stop`
reaps every process the fleet started, respawns included.  The
per-task timeout ending of the fleet lives in ``test_engine.py``
(``test_stuck_worker_times_out_typed``).  The HTTP transport's
:meth:`~repro.exec.executors.HTTPWorkerExecutor.stop` joins every
client thread, including one that is mid long-poll.
"""

import threading

import pytest

from repro.errors import DCudaTimeoutError, DCudaWorkerError
from repro.exec import ResultCache, RunSpec, run_specs
from repro.exec.executors import _HttpWorkerClient

HEALTHY = [RunSpec("selftest_point",
                   {"token": i, "mode": "sleep", "seconds": 0.05},
                   label=f"healthy-{i}") for i in range(12)]
POISON = RunSpec("selftest_point", {"mode": "exit"}, label="poison-pill")


@pytest.mark.slow
def test_one_poison_is_quarantined_alone(tmp_path, leaked_children):
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(DCudaWorkerError) as exc_info:
        run_specs(HEALTHY[:6] + [POISON] + HEALTHY[6:], workers=2,
                  cache=cache)
    message = str(exc_info.value)
    assert message.startswith("1 spec(s) quarantined"), message
    assert "poison-pill" in message and "healthy" not in message
    for spec in HEALTHY:
        hit, value = cache.get(cache.key_for(spec))
        assert hit and value["token"] == spec.params["token"]
    assert leaked_children() == set()


@pytest.mark.slow
class TestNoWorkerOutlivesASweep:
    def test_clean_run(self, leaked_children):
        report = run_specs(HEALTHY[:4], workers=2)
        assert report.executor == "local"
        assert [r["token"] for r in report.results] == [0, 1, 2, 3]
        assert leaked_children() == set()

    def test_quarantine(self, leaked_children):
        # The last death of the poison races the coordinator's stop():
        # the respawn it triggers must be refused or reaped.
        with pytest.raises(DCudaWorkerError, match="quarantined"):
            run_specs([POISON] + HEALTHY[:3], workers=2)
        assert leaked_children() == set()

    def test_typed_task_error(self, leaked_children):
        specs = [RunSpec("selftest_point",
                         {"mode": "raise", "message": "kaboom"},
                         label="crasher")] + HEALTHY[:3]
        with pytest.raises(DCudaWorkerError, match="kaboom"):
            run_specs(specs, workers=2)
        assert leaked_children() == set()


def _live_http_clients():
    return [t for t in threading.enumerate()
            if isinstance(t, _HttpWorkerClient) and t.is_alive()]


class TestNoHttpClientOutlivesASweep:
    def test_clean_run(self, http_worker):
        host, _ = http_worker
        report = run_specs(HEALTHY[:3], executor="http", hosts=[host])
        assert report.executor == "http"
        assert [r["token"] for r in report.results] == [0, 1, 2]
        assert _live_http_clients() == []

    def test_typed_timeout(self, http_worker):
        # The client is mid long-poll when the coordinator gives up.
        host, _ = http_worker
        stuck = RunSpec("selftest_point", {"mode": "sleep", "seconds": 1.0},
                        label="stuck")
        with pytest.raises(DCudaTimeoutError, match="stuck"):
            run_specs([stuck], executor="http", hosts=[host], timeout=0.3)
        assert _live_http_clients() == []
