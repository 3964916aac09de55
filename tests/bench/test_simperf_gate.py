"""The simulator-throughput gate compares like for like, per backend."""

import json
from pathlib import Path

from repro.bench.simperf import (
    ALL_BACKENDS,
    QUICK_REPEATS,
    SimPerfResult,
    check_regression,
)

ROWS = [{"probe": "synthetic", "events_per_sec": 1000.0},
        {"probe": "diffusion", "backend": "proxy", "events_per_sec": 100.0}]


def _baseline(tmp_path, rows=ROWS):
    path = tmp_path / "BENCH_simperf.json"
    path.write_text(json.dumps({"rows": rows}))
    return path


def _result(label, events_per_sec, backend=None):
    return SimPerfResult(label=label, events=int(events_per_sec), wall_s=1.0,
                         sim_time_s=1e-3, backend=backend)


def test_gate_passes_rows_within_their_thresholds(tmp_path):
    results = [_result("synthetic", 710.0),
               _result("diffusion", 81.0, "proxy")]
    assert check_regression(results, _baseline(tmp_path)) == []


def test_gate_fails_a_regressed_backend(tmp_path):
    failures = check_regression([_result("diffusion", 79.0, "proxy")],
                                _baseline(tmp_path))
    assert len(failures) == 1
    assert failures[0].startswith("REGRESSION diffusion [proxy]")


def test_gate_fails_a_backend_without_a_committed_row(tmp_path):
    # No borrowing: a device measurement is never compared with the
    # proxy row, however fast it is.
    failures = check_regression([_result("diffusion", 1e6, "device")],
                                _baseline(tmp_path))
    assert len(failures) == 1
    assert failures[0].startswith("MISSING diffusion [device]")


def test_committed_trajectory_covers_every_backend():
    path = Path(__file__).resolve().parents[2] / "BENCH_simperf.json"
    committed = json.loads(path.read_text())
    keys = {(row["probe"], row.get("backend")) for row in committed["rows"]}
    assert keys == {("synthetic", None)} | {("diffusion", b)
                                             for b in ALL_BACKENDS}
    assert committed["measurement"] == {"policy": "best-of",
                                        "repeats": QUICK_REPEATS}
