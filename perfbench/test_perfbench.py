"""Tests of the benchmark's own code.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------ self-time algebra --
def test_self_times_subtract_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #              -> b [5, 9]
    # name ids: root 0, a 1, a1 2, b 1 (same name as a: summed)
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    name = [0, 1, 2, 1]
    got = tracing.self_times(start, end, parent, name)
    assert got == {0: 10.0 - 3.0 - 4.0, 1: (3.0 - 1.0) + 4.0, 2: 1.0}
    assert sum(got.values()) == 10.0  # self times tile the root span


def test_tracer_spans_nest_and_split_by_layer():
    tr = tracing.Tracer()
    outer, inner = tr.name_id("sim:run"), tr.name_id("hw:copy")
    o = tr.open(outer)
    i = tr.open(inner)
    tr.close(i)
    tr.close(o)
    assert list(tr.parent) == [-1, 0]
    layers = tracing.by_layer(tr.entry_self_times())
    total = tr.end[0] - tr.start[0]
    assert layers["sim"] + layers["hw"] == pytest.approx(total)
    assert min(layers.values()) >= 0.0


# ------------------------------------------------------ generator wrapper --
def _echo():
    """Yields 1, then echoes what it is sent until "stop", answers a thrown
    ValueError with "caught", and returns "done"."""
    received = yield 1
    while received != "stop":
        try:
            received = yield ("echo", received)
        except ValueError as exc:
            received = yield ("caught", str(exc))
    return "done"


def _forwarded():
    tr = tracing.Tracer()
    return tr, tracing.forward(tr, _echo(), tr.name_id("x:echo"))


def test_forward_passes_sent_values_and_return_value():
    tr, gen = _forwarded()
    assert next(gen) == 1
    assert gen.send("a") == ("echo", "a")
    assert gen.send(2) == ("echo", 2)
    with pytest.raises(StopIteration) as stop:
        gen.send("stop")
    assert stop.value.value == "done"
    assert tr.span_count() == 4  # one span per resumption
    assert not tr._stack


def test_forward_passes_thrown_exceptions():
    tr, gen = _forwarded()
    next(gen)
    assert gen.send("a") == ("echo", "a")
    assert gen.throw(ValueError("boom")) == ("caught", "boom")
    assert gen.send("b") == ("echo", "b")
    with pytest.raises(KeyError):
        gen.throw(KeyError("unhandled"))
    assert not tr._stack


def test_forward_passes_close():
    inner = _echo()
    tr = tracing.Tracer()
    gen = tracing.forward(tr, inner, tr.name_id("x:echo"))
    next(gen)
    gen.send("a")
    gen.close()
    assert inner.gi_frame is None  # the wrapped generator was closed too
    assert not tr._stack


def test_forward_works_under_yield_from():
    tr = tracing.Tracer()

    def caller():
        got = yield from tracing.forward(tr, _echo(), tr.name_id("x:echo"))
        return got

    gen = caller()
    assert next(gen) == 1
    assert gen.send("z") == ("echo", "z")
    with pytest.raises(StopIteration) as stop:
        gen.send("stop")
    assert stop.value.value == "done"


def test_wrap_counts_calls_and_restores_originals():
    class Thing:
        def plain(self, x):
            return x + 1

        def gen(self):
            value = yield "first"
            return value

    tr = tracing.Tracer()
    tracing._patch(tr, Thing, "plain",
                   tracing.wrap(tr, Thing.__dict__["plain"], "l:plain"))
    tracing._patch(tr, Thing, "gen",
                   tracing.wrap(tr, Thing.__dict__["gen"], "l:gen"))
    t = Thing()
    assert t.plain(1) == 2
    g = t.gen()
    assert next(g) == "first"
    with pytest.raises(StopIteration) as stop:
        g.send(7)
    assert stop.value.value == 7
    assert tr.counts["l:plain"] == 1 and tr.counts["l:gen"] == 1
    tr.uninstall()
    assert not hasattr(Thing.plain, "__wrapped__")
    assert t.plain(1) == 2


# ------------------------------------------------------- failure counting --
def test_ledger_counts_every_failure():
    ledger = run.Ledger()
    ledger.add((6, []))
    ledger.add((6, ["a", "b"]))
    ledger.add((0, ["x"]))  # a failure without an operation still counts
    assert (ledger.attempted, ledger.failed) == (13, 3)
    assert ledger.messages == ["a", "b", "x"]


class _Checked:
    def check_cold(self, p):
        return 1, []


def test_check_traced_fails_a_moved_schedule():
    untraced = workloads.Pass(1.0, sim_time_s=2e-3, sim_events=100)
    same = workloads.Pass(3.0, sim_time_s=2e-3, sim_events=100)
    assert layers.check_traced(_Checked(), untraced, same) == (1, [])
    for moved in (workloads.Pass(3.0, sim_time_s=2e-3, sim_events=101),
                  workloads.Pass(3.0, sim_time_s=2.1e-3, sim_events=100)):
        ops, fails = layers.check_traced(_Checked(), untraced, moved)
        assert ops == 1 and len(fails) == 1


def test_traced_run_that_moves_the_schedule_exits_nonzero(
        monkeypatch, capsys):
    # Perturb only the traced pass (the app entry point is wrapped while
    # tracing): the run must report it as a failed check and exit 1.
    launch = workloads.StencilProxyFlat._launch

    def shifted(self, cluster):
        elapsed, field, runtime = launch(self, cluster)
        if hasattr(self.diffusion.run_dcuda_diffusion, "__wrapped__"):
            elapsed += 1e-9
        return elapsed, field, runtime

    monkeypatch.setattr(workloads.StencilProxyFlat, "_launch", shifted)
    for var in run.REFUSED_ENV:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "stencil-proxy-flat", "--seed", "3",
                     "--seconds", "1", "--trace", "1", "--tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "traced pass moved the simulated schedule" in out


# ------------------------------------------------------------ tiny runs --
def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_checks_and_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f'"seed": 3' in out.stdout  # the seed is echoed


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("stencil-proxy-flat", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
