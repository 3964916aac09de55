"""Tests for the ``python -m repro.exec`` command-line frontend."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.__main__ import EXIT_NOT_CACHED, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(tmp_path, *extra, suite="chaos"):
    argv = ["run", suite, "--seeds", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "sweep.json"), *extra]
    return main(argv)


class TestRun:
    def test_run_writes_sweep_record(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "Chaos-sweep envelope" in out
        assert "results digest:" in out

        record = json.loads((tmp_path / "sweep.json").read_text())
        assert record["suite"] == "chaos"
        assert record["tasks"] == 2 and record["executed"] == 2
        assert record["cache_hits"] == 0
        assert len(record["results_digest"]) == 64

    def test_warm_replay_same_digest_all_hits(self, tmp_path, capsys):
        _run(tmp_path)
        cold = json.loads((tmp_path / "sweep.json").read_text())
        assert _run(tmp_path, "--require-cached") == 0
        warm = json.loads((tmp_path / "sweep.json").read_text())
        assert warm["results_digest"] == cold["results_digest"]
        assert warm["cache_hits"] == warm["tasks"]
        assert warm["cache_hit_rate"] == 1.0
        assert cold["publish_s"] > 0 and cold["publish_failures"] == 0
        assert warm["publish_s"] == 0 and warm["probe_s"] > 0
        assert "require-cached: ok" in capsys.readouterr().out

    def test_require_cached_cold_exits_3(self, tmp_path, capsys):
        assert _run(tmp_path, "--require-cached") == EXIT_NOT_CACHED
        assert "require-cached: FAILED" in capsys.readouterr().err

    def test_no_cache_never_hits(self, tmp_path):
        _run(tmp_path)
        assert _run(tmp_path, "--no-cache", "--require-cached") \
            == EXIT_NOT_CACHED

    def test_no_json_skips_record(self, tmp_path, capsys):
        argv = ["run", "chaos", "--seeds", "1",
                "--cache-dir", str(tmp_path / "cache"), "--no-json"]
        assert main(argv) == 0
        assert not (tmp_path / "sweep.json").exists()
        assert "record:" not in capsys.readouterr().out

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fig99"])
        assert exc_info.value.code == 2


class TestCacheMaintenance:
    def test_status_reports_census(self, tmp_path, capsys):
        _run(tmp_path)
        capsys.readouterr()
        assert main(["status", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "live entries:   2" in out

    def test_clear_empties_cache(self, tmp_path, capsys):
        _run(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert _run(tmp_path, "--require-cached") == EXIT_NOT_CACHED

    def test_gc_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir",
                     str(tmp_path / "empty")]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_stats_shard_breakdown(self, tmp_path, capsys):
        _run(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--shard", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "shards:" in out
        assert "shard-" in out  # per-shard rows printed

    def test_status_shows_last_sweep_progress(self, tmp_path, capsys):
        _run(tmp_path)
        capsys.readouterr()
        assert main(["status", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "last sweep:" in out
        assert "done [serial]: 2/2 done" in out


class TestWorkerSubcommand:
    def test_worker_requires_a_mode(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["worker"])
        assert exc_info.value.code == 2

    def test_worker_modes_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["worker", "--stdio", "--port", "0"])
        assert exc_info.value.code == 2

    @pytest.mark.slow
    def test_stdio_worker_round_trip(self):
        """`worker --stdio` speaks the frame protocol over its pipes: it
        announces ``ready`` unprompted (there is no ``init`` frame), then
        answers each job with ``done`` and ``ready``."""
        import io

        from repro.exec.worker import recv_frame, send_frame

        request = io.BytesIO()
        send_frame(request, {"kind": "job", "job_id": 0,
                             "entrypoint": "selftest_point",
                             "params": {"token": "cli"}, "label": "t"})
        send_frame(request, {"kind": "shutdown"})
        proc = subprocess.run(
            [sys.executable, "-m", "repro.exec", "worker", "--stdio"],
            input=request.getvalue(), capture_output=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin"}, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        out = io.BytesIO(proc.stdout)
        assert recv_frame(out)["kind"] == "ready"
        done = recv_frame(out)
        assert done["kind"] == "done" and done["ok"]
        assert done["value"]["token"] == "cli"
        assert recv_frame(out)["kind"] == "ready"
        assert recv_frame(out) is None


@pytest.mark.slow
def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.exec", "run", "chaos", "--seeds", "1",
         "--cache-dir", str(tmp_path / "cache"),
         "--json", str(tmp_path / "sweep.json")],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert "results digest:" in proc.stdout
