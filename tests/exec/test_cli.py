"""Tests for the ``python -m repro.exec`` command-line frontend, the
one way to run a named sweep."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import DCudaUsageError
from repro.exec.__main__ import EXIT_NOT_CACHED, main
from repro.exec.suites import build_suite

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``run fig6 --iterations 3`` and ``run fig7 --nodes 2 --steps 2``
#: print these tables above their ``engine:`` line, as the figure
#: runner they replace printed them for the same arguments.
FIG6_TABLE = """\
Fig. 6 - put bandwidth vs packet size
=====================================
packet [B]  shared [MB/s]  distributed [MB/s]  shared lat [us]  distributed lat [us]
------------------------------------------------------------------------------------
         1         0.1263              0.1071             7.92                 9.341
         4          0.505              0.4282            7.921                 9.341
        16          2.019               1.713            7.924                 9.341
        64          8.066               6.852            7.934                 9.341
       256          32.09               27.22            7.977                 9.405
      1024          125.7               104.7             8.15                 9.778
      4096          463.4               363.5            8.838                 11.27
     16384           1413               950.7            11.59                 17.23
     65536           2898                1595            22.61                 41.09
    262144           3930                1920             66.7                 136.5
   1048576           4315                2023              243                 518.3
   4194304           4423                2051            948.3                  2045
"""
FIG7_TABLE = """\
Fig. 7 - overlap for square root calculation (Newton-Raphson)
=============================================================
newton iters/exchange  compute&exchange [ms]  compute only [ms]  halo exchange [ms]
-----------------------------------------------------------------------------------
                    0                 0.0578                  0             0.05785
                   16                0.05775           0.001094             0.05785
                   64                0.06095           0.008975             0.05785
                  128                0.07247            0.02112             0.05785
                  256                 0.1002             0.0442             0.05785
                  512                 0.1561            0.09035             0.05785
"""


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

    def test_no_json_skips_record(self, tmp_path, monkeypatch, capsys):
        """Without ``--json`` a run writes no record: neither in the
        working directory nor over the repo's committed one."""
        committed = REPO_ROOT / "BENCH_sweep.json"
        before = committed.read_bytes(), committed.stat().st_mtime_ns
        monkeypatch.chdir(tmp_path)
        assert main(["run", "chaos", "--seeds", "1", "--no-cache"]) == 0
        assert "record:" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
        assert (committed.read_bytes(),
                committed.stat().st_mtime_ns) == before

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fig99"])
        assert exc_info.value.code == 2


class TestFigures:
    """``run <figure>`` regenerates the paper's figures."""

    @staticmethod
    def _table(capsys, *argv):
        assert main(["run", *argv, "--no-cache"]) == 0
        out = capsys.readouterr().out
        return out[:out.index("engine:")]

    def test_fig6_table(self, capsys):
        assert self._table(capsys, "fig6", "--iterations", "3") \
            == FIG6_TABLE

    def test_fig7_table_on_two_nodes(self, capsys):
        assert self._table(capsys, "fig7", "--nodes", "2", "--steps",
                           "2") == FIG7_TABLE

    def test_fig10_rows_for_each_node_count(self, capsys):
        table = self._table(capsys, "fig10", "--nodes", "1", "2",
                            "--no-verify")
        assert table.startswith("Fig. 10 - stencil program weak scaling")
        rows = [line.split() for line in table.splitlines()[4:-1]]
        assert [row[0] for row in rows] == ["1", "2"]
        assert "note: 128x416x26 grid points per device" in table


class TestChaosVerdict:
    def test_contract_violation_prints_outcome_and_exits_1(
            self, monkeypatch, capsys):
        """A chaos outcome that breaks the contract (here: diverged
        numerics) is printed on its own line and fails the run."""
        import repro.faults.report as report

        def diverged(seed=None, **_):
            return report.ChaosOutcome(seed=seed, status="completed",
                                       elapsed=1e-3, injections=2,
                                       numerics_equal=seed != 1)

        monkeypatch.setattr(report, "run_chaos_case", diverged)
        assert main(["run", "chaos", "--seeds", "2", "--no-cache",
                     "--executor", "serial"]) == 1
        out = capsys.readouterr().out
        assert "1 violate it" in out
        assert ("seed=1: completed in 1.000e-03s simulated, 2 injections, "
                "NUMERICS DIVERGED") in out
        assert "seed=0:" not in out


class TestKnobs:
    """A suite refuses a knob it does not read, rather than run a sweep
    nobody asked for."""

    @pytest.mark.parametrize("name, knobs, knob", [
        ("chaos", dict(seeds=2, backends=("stream",)), "backends"),
        ("fig6", dict(backends=("device",)), "backends"),
        ("fig6", dict(nodes=4), "nodes"),
        ("fig7", dict(topology=("ring",)), "topology"),
        ("fig9", dict(steps=3), "steps"),
        ("ml", dict(iterations=3), "iterations"),
    ])
    def test_unread_knob_is_refused(self, name, knobs, knob):
        with pytest.raises(DCudaUsageError,
                           match=f"suite '{name}' does not read the "
                                 f"'{knob}' knob"):
            build_suite(name, **knobs)

    @pytest.mark.parametrize("name", ["chaos", "fig7", "fig8", "topo",
                                      "ml"])
    def test_one_machine_suites_take_one_node_count(self, name):
        with pytest.raises(DCudaUsageError, match="one 'nodes' count"):
            build_suite(name, nodes=(2, 4))
        one = build_suite(name, nodes=4).specs
        listed = build_suite(name, nodes=[4]).specs
        assert ([s.content_hash() for s in listed]
                == [s.content_hash() for s in one])

    def test_defaults_per_suite(self):
        assert [s.params["num_nodes"] for s in
                build_suite("chaos").specs[:1]
                + build_suite("fig7").specs[:1]
                + build_suite("topo").specs[-1:]] == [2, 8, 4]
        assert build_suite("fig8").specs[0].params["steps"] == 20
        assert [s.params["nodes"] for s in build_suite("fig9").specs] \
            == [1, 2, 4, 8]
        assert [s.params["nodes"] for s in build_suite("fig11").specs] \
            == [1, 4, 9]

    @pytest.mark.parametrize("argv, knob", [
        (["chaos", "--backend", "stream"], "backends"),
        (["fig6", "--nodes", "4"], "nodes"),
    ])
    def test_cli_exits_1_naming_the_knob(self, argv, knob, capsys):
        assert main(["run", *argv, "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert f"error[DCUDA_USAGE]: suite '{argv[0]}' does not read " \
               f"the '{knob}' knob" in err


class TestCacheMaintenance:
    def test_stats_reports_census(self, tmp_path, capsys):
        _run(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "live entries:   2" in out
        assert "shard" not in out

    @pytest.mark.parametrize("argv", [["status"],
                                      ["cache", "stats", "--shard"]])
    def test_one_census_command(self, argv):
        """``cache stats`` is the only census: ``status`` and the
        per-shard breakdown are gone."""
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2

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

    def test_status_shows_last_sweep_progress(self, tmp_path, capsys):
        _run(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
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
