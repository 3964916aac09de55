"""Import budget: a sweep worker and the report modules never load scipy,
and a sweep coordinator loads neither numpy nor the simulator.

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
data, its results unpickle without numpy or the simulator, and the
canonical digest looks numpy up instead of importing it, so a
coordinator that builds the benchmark's sweep inputs (the Fig. 6 suite
plus chaos specs) and runs them cold on two workers and then warm from
the store loads neither numpy nor any module of the simulator's layers.
Every suite builds with its defaults, and the ``cache stats`` command
runs, without numpy or scipy; only the topo and ml suites load ``hw``
and ``platform``, for their machine configs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.suites import SUITE_NAMES

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
assert repro.bench.ScalingRow.__name__ == "ScalingRow"
assert "scipy" not in sys.modules
import repro.apps.spmv

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


def forbidden_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "numpy"
                  or m.startswith("repro.") and m.split(".")[1] in SIMULATOR)


chaos, shared = chaos_specs(range(4), num_nodes=2, ranks_per_device=2)
specs = build_suite("fig6", iterations=2).specs + chaos
assert not forbidden_modules(), f"set-up loaded {forbidden_modules()[:5]}"
cold = run_specs(specs, workers=2, cache=ResultCache(sys.argv[1]),
                 shared=shared)
assert cold.executor == "local", cold.executor
assert cold.executed == len(specs)
assert not forbidden_modules(), f"cold pass loaded {forbidden_modules()[:5]}"
warm = run_specs(specs, workers=2, cache=ResultCache(sys.argv[1]),
                 shared=shared)
assert warm.executed == 0
assert canonical_digest(cold.results) == canonical_digest(warm.results)
assert all(outcome.clean for outcome in cold.results[-len(chaos):])
loaded = forbidden_modules()
assert not loaded, f"warm pass loaded {loaded[:5]}"
print("ok")
"""


@pytest.mark.slow
def test_sweep_coordinator_loads_no_simulator(tmp_path):
    """Set-up, the cold pass and the warm pass load no numpy and no
    simulator layer."""
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT, str(tmp_path / "store")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


_SUITE_SCRIPT = """
import sys

from repro.exec.__main__ import main
from repro.exec.suites import build_suite

suite = build_suite(sys.argv[1])
assert suite.specs, "a default suite has tasks"
import repro.bench.overlap      # every module a suite's results
import repro.bench.pingpong     # unpickle from
import repro.bench.weak_scaling
import repro.faults.report

assert main(["cache", "stats", "--cache-dir", sys.argv[2]]) == 0
numeric = sorted(m for m in sys.modules
                 if m.split(".")[0] in ("numpy", "scipy"))
assert not numeric, f"loaded {numeric[:5]}"
layers = sorted({m.split(".")[1] for m in sys.modules
                 if m.startswith("repro.")})
print(" ".join(layers))
"""

#: The repro packages a coordinator may load: the sweep service, the
#: report and table modules, and the fault config its results name.
_COORDINATOR_LAYERS = {"bench", "errors", "exec", "faults"}
#: ``MachineConfig`` and ``COMM_BACKENDS`` (topo and ml) also load the
#: config-side modules of these layers, never numpy.
_CONFIG_LAYERS = {"hw", "net", "obs", "platform", "sim"}


@pytest.mark.slow
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_coordinator_loads_no_numpy(name, tmp_path):
    """A coordinator that builds a suite with its defaults, imports every
    module a result unpickles from and reports on the store loads no
    numpy or scipy, and for chaos and fig6-fig11 no simulator layer."""
    proc = subprocess.run(
        [sys.executable, "-c", _SUITE_SCRIPT, name, str(tmp_path / "store")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    layers = set(proc.stdout.strip().splitlines()[-1].split())
    allowed = _COORDINATOR_LAYERS
    if name in ("topo", "ml"):
        allowed = allowed | _CONFIG_LAYERS
    assert layers <= allowed, sorted(layers - allowed)
