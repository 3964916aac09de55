#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stencil-proxy-flat --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes a separate traced run that reports the per-layer split (see
``perfbench/README.md``).  Human-readable lines come first; the last line
of standard output is the JSON result.  A failed check still prints it
(``"correct": false``) and exits 1; a checkout without ``src/repro``
exits 1 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
#: Transport overrides the sweep must not pick up from the environment.
REFUSED_ENV = ("REPRO_EXEC_EXECUTOR", "REPRO_EXEC_HOSTS")


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a probe's timestamps compare with
    # the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time (BENCHMARK.json: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _use_checkout_source(root: Path) -> None:
    """Import ``repro`` from ``<root>/src`` and nowhere else."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro under {root}; run from the root "
                 "of a checkout")
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != \
            (root / "src" / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not "
                 f"from {root / 'src'}")


def setup_probe(args) -> None:
    """Child mode: set up like a real run, report timestamps, exit."""
    import workloads

    w = workloads.make_workload(args.workload, args.seed, args.tiny,
                                work_dir=Path(workloads.WORK_DIR) / "probe")
    w.imports()
    imported = _clock()
    w.build()
    ready = _clock()
    w.close()
    print(json.dumps({"imported": imported, "ready": ready}))


def run_probe(args) -> Dict[str, float]:
    """Start a fresh interpreter that sets up and stops before the first
    timed call; returns its import and build times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = _clock()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    stamps = json.loads(out.stdout.strip().splitlines()[-1])
    return {"setup_s": stamps["ready"] - t0,
            "import_s": stamps["imported"] - t0,
            "build_s": stamps["ready"] - stamps["imported"]}


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, checked) -> None:
        """Count ``(operations, failure messages)``: each message fails
        one operation, and a failure always fails at least one."""
        ops, fails = checked
        ops = max(ops, 1 if fails else 0)
        self.attempted += ops
        self.failed += min(ops, len(fails))
        self.messages.extend(fails[:max(0, 5 - len(self.messages))])


def cycles(args, body: Callable[[], None]) -> List[Dict[str, float]]:
    """Run cycles of a set-up probe and *body* until ``args.seconds`` is
    used; returns the probes.

    A cycle starts only if one of median length still ends in time, so the
    probes (and the passes) spread over the whole measuring time.
    """
    deadline = time.perf_counter() + args.seconds
    probes: List[Dict[str, float]] = []
    cycle_s: List[float] = []
    while True:
        t0 = time.perf_counter()
        probes.append(run_probe(args))
        body()
        cycle_s.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(cycle_s) > deadline:
            return probes


def measure(args, w, ledger: Ledger) -> Dict:
    """Untraced run: cold passes and replays until the time is used."""
    cold: List[float] = []
    replay: List[float] = []
    first: Dict = {}

    def cycle() -> None:
        # The passes (and their outputs) die with this frame, before the
        # next cycle's passes run.
        c = w.cold()
        ledger.add(w.check_cold(c))
        cold.append(c.wall_s)
        for _ in range(w.replays_per_cycle):
            r = w.replay()
            ledger.add(w.check_replay(r, c))
            replay.append(r.wall_s)
        if not first:
            first.update(sim_time_s=c.sim_time_s, sim_events=c.sim_events,
                         digest=c.outputs if not c.sim_events else None)

    probes = cycles(args, cycle)
    return {"cold": cold, "replay": replay, "probes": probes, "first": first}


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f} "
            f"samples={json.dumps([round(v, 4) for v in values])}")


def end_to_end(args, w, ledger: Ledger) -> Dict[str, Dict]:
    m = measure(args, w, ledger)
    first = m["first"]
    setup = [p["setup_s"] for p in m["probes"]]
    print(f"wall_s    {_quartiles(m['cold'])}")
    print(f"replay_s  {_quartiles(m['replay'])}")
    print(f"setup_s   {_quartiles(setup)}")
    if first["sim_events"]:
        print(f"sim_time_us {first['sim_time_s'] * 1e6!r} sim_us (simulated, "
              f"exact)  sim.events {first['sim_events']}")
    else:
        print(f"results digest {first['digest']}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": statistics.median(m["cold"]), "unit": "s"},
        "replay_s": {"value": statistics.median(m["replay"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    _use_checkout_source(root)
    for var in REFUSED_ENV:
        os.environ.pop(var, None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args)
        return 0

    w = workloads.make_workload(args.workload, args.seed, args.tiny,
                                work_dir=root / workloads.WORK_DIR)
    workloads.prepare(w)
    ledger = Ledger()
    try:
        if args.trace:
            import layers

            metrics = layers.per_layer(args, w, ledger, cycles)
        else:
            metrics = end_to_end(args, w, ledger)
    finally:
        w.close()
    import numpy

    from repro.exec.fingerprint import source_fingerprint

    print("info " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "source_fingerprint": source_fingerprint(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for message in ledger.messages:
        print(f"CHECK FAILED: {message}")
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
