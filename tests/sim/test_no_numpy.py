"""Smoke test: the DES core runs with numpy absent.

numpy is the ``[perf]`` optional extra, not a hard dependency — the
scheduler, primitives, and the FairShareLink fluid model import none of
it.  This test runs the same deterministic workload twice in
subprocesses — once normally, once with a meta-path hook that blocks
every ``numpy`` import — and asserts that neither run loaded numpy and
that both print bit-identical completion schedules.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Deterministic workload exercising the scheduler (timeouts, processes,
#: due-lane zero delays) and the FairShareLink fluid model: weighted flows
#: entering at one instant (empty ones included), a late single transfer,
#: and a hundred flows in flight at once.
_WORKLOAD = """
import sys

from repro.sim import Environment
from repro.sim.link import FairShareLink

env = Environment()
link = FairShareLink(env, bandwidth=100.0)
out = []

def driver():
    for i, nbytes in enumerate([100.0, 50.0, 0.0, 200.0] + [10.0] * 8):
        link.transfer(nbytes, weight=2.0).add_callback(
            lambda _e, i=i: out.append((env.now, "flow", i)))
    yield env.timeout(0.5)
    done = link.transfer(75.0)
    yield done
    out.append((env.now, "single", 0))
    for _ in range(99):
        link.transfer(1.0, weight=0.5)
    yield from link.stream(1.0, weight=0.5)
    out.append((env.now, "many", 0))

env.process(driver())
env.run()
assert "numpy" not in sys.modules, "the sim core imported numpy"
print(repr(out))
print(repr(env.now))
"""

_BLOCKER = """
import sys

class _NumpyBlocker:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked by test_no_numpy")
        return None

sys.meta_path.insert(0, _NumpyBlocker())
"""


def _run(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
def test_core_runs_without_numpy_bit_identically():
    with_numpy = _run(_WORKLOAD)
    without_numpy = _run(_BLOCKER + _WORKLOAD)
    assert with_numpy == without_numpy
    # The schedule is non-trivial: the weighted flows, the single
    # transfer, and the 100-flow burst all completed.
    assert "'many'" in with_numpy
    assert with_numpy.count("'flow'") == 12


@pytest.mark.slow
def test_sim_package_imports_without_numpy():
    script = _BLOCKER + """
import repro.sim
import repro.sim.primitives
import repro.sim.channel
import repro.sim.trace
import sys
assert "numpy" not in sys.modules
print("ok")
"""
    assert _run(script).strip() == "ok"
