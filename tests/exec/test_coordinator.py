"""Tests for the sweep coordinator: dedup, retry, quarantine, progress.

A scripted in-process executor plays back worker-loss scenarios
deterministically, so the retry and quarantine policies are tested
without real process churn (the real transports get that treatment in
``test_worker_chaos.py``).
"""

import json
import os

import pytest

from repro.errors import DCudaWorkerError
from repro.exec import ResultCache, RunSpec
from repro.exec.coordinator import (
    STATUS_FILENAME,
    Coordinator,
    ProgressEvent,
    SweepReport,
)
from repro.exec.executors import Completion, Executor, SerialExecutor
from repro.exec.spec import resolve_entrypoint


class ScriptedExecutor(Executor):
    """Runs jobs in-process, but kills scripted (label, attempt) pairs.

    ``deaths`` maps a job label to the number of times it should present
    as worker loss before (ever) succeeding.  Each simulated death comes
    from a fresh worker identity, modelling the distinct-workers
    quarantine condition.
    """

    name = "scripted"
    preemptive = True

    def __init__(self, deaths=None):
        self.deaths = dict(deaths or {})
        self._pending = []
        self._seen = {}
        self._worker_serial = 0

    def start(self, expected_jobs=None):
        pass

    def submit(self, job):
        self._pending.append(job)

    def next_completion(self, timeout=None):
        if not self._pending:
            return None
        job = self._pending.pop(0)
        attempt = self._seen.get(job.label, 0)
        self._seen[job.label] = attempt + 1
        self._worker_serial += 1
        worker = f"scripted-{self._worker_serial}"
        if attempt < self.deaths.get(job.label, 0):
            return Completion(job.job_id, worker=worker, worker_lost=True)
        fn = resolve_entrypoint(job.entrypoint)
        value = fn(dict(job.params))
        return Completion(job.job_id, ok=True, value=value, worker=worker)

    def stop(self):
        self._pending.clear()

    def alive_workers(self):
        return 1


def _specs(n, **extra):
    return [RunSpec("selftest_point", {"token": i, **extra},
                    label=f"t{i}") for i in range(n)]


class TestRetry:
    def test_single_loss_is_retried_to_success(self):
        ex = ScriptedExecutor(deaths={"t1": 1})
        report = Coordinator(ex).run(_specs(3))
        assert [r["token"] for r in report.results] == [0, 1, 2]
        assert report.retries == 1
        assert report.executed == 3

    def test_two_losses_within_budget_still_succeed(self):
        ex = ScriptedExecutor(deaths={"t0": 2})
        report = Coordinator(ex, max_attempts=3).run(_specs(2))
        assert report.retries == 2
        assert [r["token"] for r in report.results] == [0, 1]


class TestQuarantine:
    def test_poisoned_spec_is_one_typed_error_after_drain(self):
        ex = ScriptedExecutor(deaths={"t1": 99})
        events = []
        coord = Coordinator(ex, max_attempts=3, on_event=events.append)
        with pytest.raises(DCudaWorkerError) as exc_info:
            coord.run(_specs(3))
        message = str(exc_info.value)
        assert "quarantined" in message and "t1" in message
        assert "3" in message  # names the attempt budget
        # Three distinct workers are named in the quarantine report.
        assert message.count("scripted-") == 3
        # The rest of the sweep completed before the error surfaced.
        done = [e for e in events if e.kind == "done"]
        assert {e.label for e in done} == {"t0", "t2"}
        assert [e.kind for e in events].count("quarantine") == 1

    def test_healthy_specs_cached_despite_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="c" * 64)
        ex = ScriptedExecutor(deaths={"t0": 99})
        with pytest.raises(DCudaWorkerError):
            Coordinator(ex, cache=cache, max_attempts=2).run(_specs(3))
        # t1/t2 were published; a healthy re-run is served from cache.
        report = Coordinator(SerialExecutor(), cache=cache).run(
            _specs(3)[1:])
        assert report.cache_hits == 2 and report.executed == 0


class TestDedup:
    def test_identical_specs_run_once_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="d" * 64)
        spec = RunSpec("selftest_point", {"token": "same"}, label="dup")
        report = Coordinator(SerialExecutor(), cache=cache).run([spec] * 4)
        assert report.executed == 1
        assert report.dedup_hits == 3
        assert all(r["token"] == "same" for r in report.results)

    def test_no_cache_means_no_dedup(self):
        spec = RunSpec("selftest_point", {"token": "same"})
        report = Coordinator(SerialExecutor()).run([spec] * 4)
        assert report.executed == 4 and report.dedup_hits == 0

    def test_non_cacheable_specs_never_dedup(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="d" * 64)
        spec = RunSpec("selftest_point", {"token": "wall-clock"},
                       cacheable=False)
        report = Coordinator(SerialExecutor(), cache=cache).run([spec] * 3)
        assert report.executed == 3 and report.dedup_hits == 0

    def test_dedup_and_cache_compose(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="d" * 64)
        spec = RunSpec("selftest_point", {"token": "x"})
        Coordinator(SerialExecutor(), cache=cache).run([spec])
        report = Coordinator(SerialExecutor(), cache=cache).run([spec] * 3)
        assert report.cache_hits == 3 and report.executed == 0


class TestProgressStream:
    def test_event_sequence_and_counts(self):
        events = []
        Coordinator(SerialExecutor(), on_event=events.append).run(_specs(2))
        kinds = [e.kind for e in events]
        assert kinds[0] == "start" and kinds[-1] == "finish"
        assert kinds.count("done") == 2
        final = events[-1]
        assert final.done == 2 and final.total == 2

    def test_status_file_written_and_final(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="e" * 64)
        Coordinator(SerialExecutor(), cache=cache).run(_specs(2))
        record = json.loads((cache.root / STATUS_FILENAME).read_text())
        assert record["state"] == "done"
        assert record["done"] == 2 and record["total"] == 2
        assert record["executor"] == "serial"

    def test_all_hit_sweep_writes_status_once(self, tmp_path,
                                              monkeypatch):
        cache = ResultCache(tmp_path / "cache", fingerprint="e" * 64)
        Coordinator(SerialExecutor(), cache=cache).run(_specs(2))
        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        events = []
        Coordinator(SerialExecutor(), cache=cache,
                    on_event=events.append).run(_specs(2))
        assert [e.kind for e in events] == ["start", "finish"]
        assert replaced == [STATUS_FILENAME]
        record = json.loads((cache.root / STATUS_FILENAME).read_text())
        assert record["state"] == "done" and record["cache_hits"] == 2

    def test_event_line_renders_counts(self):
        line = ProgressEvent(kind="done", done=3, total=9, cache_hits=2,
                             retries=1).line()
        assert "3/9" in line and "2 cached" in line and "retried" in line


class TestSerialFallback:
    def test_single_job_skips_transport(self):
        ex = ScriptedExecutor()
        report = Coordinator(ex, serial_fallback=True,
                             workers_hint=4).run(_specs(1))
        assert report.executor == "serial"
        assert report.workers == 4  # the hint survives the swap

    def test_multi_job_keeps_transport(self):
        ex = ScriptedExecutor()
        report = Coordinator(ex, serial_fallback=True).run(_specs(2))
        assert report.executor == "scripted"


class TestPhaseTimes:
    def test_all_hit_sweep_probes_but_never_publishes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
        cold = Coordinator(SerialExecutor(), cache=cache).run(_specs(3))
        assert cold.publish_s > 0 and cold.publish_failures == 0
        warm = Coordinator(SerialExecutor(), cache=cache).run(_specs(3))
        assert warm.cache_hits == 3 and warm.executed == 0
        assert warm.publish_s == 0 and warm.probe_s > 0
        assert warm.key_s > 0
        assert warm.results == cold.results
        assert "probes" in warm.summary()

    def test_no_cache_no_probe_no_publish(self):
        report = Coordinator(SerialExecutor()).run(_specs(2))
        assert report.publish_s == 0 and report.publish_failures == 0


class TestReport:
    def test_summary_mentions_executor_and_retries(self):
        report = SweepReport(results=[1], tasks=1, executed=1,
                             cache_hits=0, workers=2, wall_s=0.5,
                             retries=3, executor="local")
        text = report.summary()
        assert "[local]" in text and "retried" in text

    def test_empty_sweep(self):
        report = Coordinator(SerialExecutor()).run([])
        assert report.results == [] and report.tasks == 0
        assert report.cache_hit_rate == 0.0
