"""Import budget: a sweep worker and the report modules never load scipy,
and a sweep coordinator never loads the simulator.

Every Fig. 6 point and chaos seed runs in a fresh interpreter (a
``local`` or HTTP worker, or a ``python -m repro.*`` command), so what
that interpreter imports is paid once per worker and per command.
``repro.bench`` and ``repro.dcuda`` therefore re-export on use, and scipy
sits only behind the SpMV app.  This test runs in a fresh interpreter
what ``python -m repro.exec worker --stdio`` runs: it imports the CLI
module, takes the start-up step of :func:`~repro.exec.worker.serve_stdio`
(``from . import points``), and runs one chaos case and one ping-pong
point through :func:`~repro.exec.worker.run_job_payload`.  It then
imports the fault, overlap and table report modules and checks that
scipy never loaded, and that every lazily re-exported name still
resolves.  Module counts are not compared: they move with numpy
versions; scipy is the dependency worth pinning.

The coordinator side holds a stricter rule.  Building a sweep is pure
data, and its results unpickle without the simulator, so a coordinator
that builds the benchmark's sweep inputs (the Fig. 6 suite plus chaos
specs) and runs them cold on two workers and then warm from the store
loads no module of the simulator's layers.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_SCRIPT = """
import sys

import repro.exec.__main__  # the worker program: python -m repro.exec
from repro.exec import points  # serve_stdio's start-up step
from repro.exec.worker import run_job_payload


def run(job_id, entrypoint, params, label):
    done = run_job_payload({"kind": "job", "job_id": job_id,
                            "entrypoint": entrypoint, "params": params,
                            "label": label})
    assert done["kind"] == "done" and done["job_id"] == job_id, done
    assert done["ok"], done.get("error")
    return done["value"]


outcome = run(0, "chaos_case",
              {"seed": 7, "num_nodes": 2, "ranks_per_device": 1}, "chaos:7")
assert outcome.clean, outcome.status
point = run(1, "pingpong_point",
            {"shared_mem": False, "packet_bytes": 8, "iterations": 2},
            "fig6:8")
assert point.latency > 0

import repro.bench.table
import repro.faults.report
import repro.obs.report

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"scipy loaded: {loaded[:5]}"

import repro.bench
import repro.dcuda

assert repro.bench.Table is repro.bench.table.Table
assert callable(repro.dcuda.collectives.allreduce)
assert callable(repro.dcuda.capi.dcuda_put_notify)
namespace = {}
exec("from repro.dcuda import *", namespace)
assert {"capi", "collectives", "ext", "launch"} <= set(namespace)
try:
    repro.bench.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown names must raise AttributeError")
assert "scipy" not in sys.modules
assert callable(repro.bench.spmv_weak_scaling)
assert "scipy.sparse" in sys.modules
print("ok")
"""


@pytest.mark.slow
def test_worker_and_reports_load_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


_SWEEP_SCRIPT = """
import sys

from repro.exec import ResultCache, run_specs
from repro.exec.spec import canonical_digest
from repro.exec.suites import build_suite
from repro.faults.report import chaos_specs

SIMULATOR = {"sim", "hw", "net", "platform", "runtime", "mpi", "comm",
             "dcuda", "mpicuda", "apps"}


def simulator_modules():
    return sorted(m for m in sys.modules
                  if m.startswith("repro.") and m.split(".")[1] in SIMULATOR)


chaos, shared = chaos_specs(range(4), num_nodes=2, ranks_per_device=2)
specs = build_suite("fig6", iterations=2).specs + chaos
assert not simulator_modules(), f"set-up loaded {simulator_modules()[:5]}"
cold = run_specs(specs, workers=2, cache=ResultCache(sys.argv[1]),
                 shared=shared)
warm = run_specs(specs, workers=2, cache=ResultCache(sys.argv[1]),
                 shared=shared)
assert cold.executor == "local", cold.executor
assert cold.executed == len(specs) and warm.executed == 0
assert canonical_digest(cold.results) == canonical_digest(warm.results)
assert all(outcome.clean for outcome in cold.results[-len(chaos):])
loaded = simulator_modules()
assert not loaded, f"simulator loaded: {loaded[:5]}"
print("ok")
"""


@pytest.mark.slow
def test_sweep_coordinator_loads_no_simulator(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT, str(tmp_path / "store")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
