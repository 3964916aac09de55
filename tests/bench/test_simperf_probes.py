"""simperf measures in the process that calls it.

A wall-clock probe is not a sweep task: it is never keyed, cached or
deduplicated, and it never competes with a second probe for the cores.
So the CLI's measurement and its profile run without the sweep engine,
and each quick probe retires exactly the events of its committed row.
"""

import json
from pathlib import Path

import pytest

import repro.exec
import repro.exec.engine
from repro.bench import simperf
from repro.exec.coordinator import Coordinator
from repro.hw.config import COMM_BACKENDS

_COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_simperf.json"


def _refuse(*args, **kwargs):
    raise AssertionError("simperf went through the sweep engine")


def test_measurement_and_profile_never_enter_the_sweep_engine(
        monkeypatch, capsys):
    monkeypatch.setattr(repro.exec.engine, "run_specs", _refuse)
    monkeypatch.setattr(repro.exec, "run_specs", _refuse)
    monkeypatch.setattr(Coordinator, "run", _refuse)
    mtime = _COMMITTED.stat().st_mtime_ns

    assert simperf.main(["--no-json"]) == 0
    table = capsys.readouterr().out
    assert "synthetic" in table and "proxy" in table
    assert "engine:" not in table

    assert simperf.main(["--profile"]) == 0
    profile = capsys.readouterr().out
    assert profile.count("=== ") == 2  # synthetic, then proxy diffusion
    assert "=== diffusion [proxy]:" in profile
    assert _COMMITTED.stat().st_mtime_ns == mtime


def test_quick_probes_retire_the_committed_events():
    """One run of each quick probe, every backend: the events and the
    simulated time equal the committed rows exactly."""
    rows = {(row["probe"], row.get("backend")): row
            for row in json.loads(_COMMITTED.read_text())["rows"]}
    results = [probe() for probe in
               simperf.throughput_probes(backends=COMM_BACKENDS)]
    assert [(r.label, r.backend) for r in results] == [
        ("synthetic", None)] + [("diffusion", b) for b in COMM_BACKENDS]
    for r in results:
        row = rows[(r.label, r.backend)]
        assert (r.events, r.sim_time_s) == (row["events"],
                                            row["sim_time_s"])
    assert [r.events for r in results] == [25664, 22533, 15987, 18358]


def test_backend_option_names_all_or_a_list():
    assert simperf._backends("all") == list(COMM_BACKENDS)
    assert simperf._backends("device, stream") == ["device", "stream"]


@pytest.mark.parametrize("argv", [["--workers", "2"], ["-j", "2"],
                                  ["--json", "out.json"],
                                  ["--gate-threshold", "0.5"],
                                  ["--synthetic-gate-threshold", "0.5"]])
def test_removed_options_are_refused(argv):
    with pytest.raises(SystemExit) as exc_info:
        simperf.main(argv)
    assert exc_info.value.code == 2
