"""Command-line sweep service: ``python -m repro.exec``.

Subcommands::

    run <suite>     execute a named sweep (chaos, fig6..fig11, topo,
                    ml) on any executor transport
    worker          serve jobs: --stdio (pipe fleet member) or
                    --port N (HTTP worker daemon)
    cache stats     census the result cache + the last sweep's progress
    cache gc        delete entries from stale source fingerprints
    cache clear     delete every cache entry

``run`` is the one way to regenerate a figure or report of the paper's
evaluation: it prints the suite's table, an engine summary line and the
canonical digest of the merged result list, and with ``--json PATH``
writes the machine-readable sweep record there: wall-clock, the
coordinator's phase times (keys, probes, publishes), worker count,
executor, cache hit rate, and the digest.  The digest is the
bit-identity witness — it is a pure function of the spec list, so any
two invocations of the same suite at the same source fingerprint must
print the same digest regardless of executor, worker count, completion
order, cache state, or worker deaths survived along the way.

Each suite reads its own shape knobs (``--nodes``, ``--steps``, ...) with
per-suite defaults, and refuses one it would ignore (exit 1).  A suite
with a contract (chaos: complete with identical numerics or fail typed)
prints each violating result and exits 1.  ``--require-cached`` exits
with status 3 unless *every* task was served from the cache —
CI uses it to assert that a warm replay does zero simulation work.

Examples::

    PYTHONPATH=src python -m repro.exec run chaos --seeds 50 --workers 4
    PYTHONPATH=src python -m repro.exec run fig6 --workers 2
    PYTHONPATH=src python -m repro.exec run fig10 --nodes 1 2 4
    for fig in fig6 fig7 fig8 fig9 fig10 fig11; do     # every figure
        PYTHONPATH=src python -m repro.exec run $fig > $fig.txt
    done
    PYTHONPATH=src python -m repro.exec worker --port 8791   # terminal 1
    PYTHONPATH=src python -m repro.exec run fig6 --executor http \\
        --hosts 127.0.0.1:8791                               # terminal 2
    PYTHONPATH=src python -m repro.exec run fig6 --require-cached
    PYTHONPATH=src python -m repro.exec cache stats
    PYTHONPATH=src python -m repro.exec cache gc
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..errors import DCudaError
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .coordinator import STATUS_FILENAME
from .engine import default_workers, run_specs
from .executors import EXECUTOR_NAMES
from .fingerprint import source_fingerprint
from .spec import canonical_digest
from .suites import SUITE_NAMES, build_suite

__all__ = ["main"]

#: Exit status for ``--require-cached`` violations (2 is argparse's).
EXIT_NOT_CACHED = 3


def _names(text: str) -> Optional[tuple]:
    """Split a comma-separated option value into its non-empty names
    (``None``, the option's default, when there are none)."""
    return tuple(name.strip() for name in text.split(",")
                 if name.strip()) or None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="Deterministic sweep service with pluggable "
                    "executors and a content-addressed cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a named sweep")
    run.add_argument("suite", choices=SUITE_NAMES,
                     help="which sweep to run")
    run.add_argument("--workers", "-j", type=int, default=None,
                     help="worker processes (default: $REPRO_EXEC_WORKERS "
                          "or 1 = serial)")
    run.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                     help="transport (default: $REPRO_EXEC_EXECUTOR, or "
                          "serial/local by worker count)")
    run.add_argument("--hosts", type=_names, metavar="H:P,...",
                     help="http executor: comma-separated host:port "
                          "worker daemons (default: $REPRO_EXEC_HOSTS)")
    run.add_argument("--progress", action="store_true",
                     help="stream a live progress line to stderr")
    run.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                     help=f"result cache directory (default: "
                          f"{DEFAULT_CACHE_DIR})")
    run.add_argument("--no-cache", action="store_true",
                     help="execute everything; neither read nor write "
                          "the cache")
    run.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="per-task wall-clock budget in seconds "
                          "(process transports)")
    run.add_argument("--json", type=str, default=None, metavar="PATH",
                     help="write the sweep record to PATH (default: no "
                          "record)")
    run.add_argument("--require-cached", action="store_true",
                     help=f"exit {EXIT_NOT_CACHED} unless every task "
                          "was a cache hit")
    # Suite shape knobs: each suite reads its own subset and refuses
    # the rest; an unset knob takes the suite's default.
    run.add_argument("--seeds", type=int,
                     help="chaos: number of fault seeds (default 50)")
    run.add_argument("--nodes", type=int, nargs="+", metavar="N",
                     help="node count: fig9-11 sweep every N given "
                          "(default 1 2 4 8; fig11: 1 4 9); chaos, "
                          "fig7/8, topo and ml take one (default 2, 8, "
                          "4 and 4)")
    run.add_argument("--ranks", type=int,
                     help="chaos: ranks per device (default 2)")
    run.add_argument("--steps", type=int,
                     help="chaos: diffusion steps (default 2); fig7/8: "
                          "iterations per overlap point (default 20)")
    run.add_argument("--iterations", type=int,
                     help="fig6/topo: ping-pong iterations (default 30)")
    run.add_argument("--no-verify", dest="verify", action="store_false",
                     default=None,
                     help="fig9-11: skip reference verification")
    run.add_argument("--topology", type=_names, metavar="KINDS",
                     help="topo/ml: comma-separated interconnect kinds "
                          "(topo default: flat,fat_tree,ring; ml "
                          "default: flat,fat_tree)")
    run.add_argument("--topo-gpus", type=int,
                     help="topo/ml: GPUs per node (default 2)")
    run.add_argument("--backend", dest="backends", type=_names,
                     metavar="NAMES",
                     help="topo/ml: comma-separated communication "
                          "backends to sweep (proxy, device, stream; "
                          "default: proxy)")

    worker = sub.add_parser(
        "worker", help="serve sweep jobs (stdio fleet member or HTTP "
                       "daemon)")
    mode = worker.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stdio", action="store_true",
                      help="speak the frame protocol over stdin/stdout "
                           "(used by the local executor)")
    mode.add_argument("--port", type=int, default=None,
                      help="serve HTTP on this port (0 picks a free one)")
    worker.add_argument("--host", type=str, default="127.0.0.1",
                        help="HTTP bind address (default 127.0.0.1; "
                             "binding wider is an explicit decision)")

    cache = sub.add_parser("cache", help="cache maintenance")
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: census and the last sweep's "
                            "progress; gc: drop stale generations; "
                            "clear: drop everything")
    cache.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR)

    return parser


def _cmd_run(args) -> int:
    suite = build_suite(args.suite, seeds=args.seeds, nodes=args.nodes,
                        ranks=args.ranks, steps=args.steps,
                        iterations=args.iterations, verify=args.verify,
                        topology=args.topology, topo_gpus=args.topo_gpus,
                        backends=args.backends)
    workers = (args.workers if args.workers is not None
               else default_workers())
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    on_event = None
    if args.progress:
        def on_event(event):
            end = "\n" if event.kind == "finish" else ""
            print(f"\r{event.line()}", end=end, file=sys.stderr,
                  flush=True)

    report = run_specs(suite.specs, workers=workers, cache=cache,
                       timeout=args.timeout, executor=args.executor,
                       hosts=args.hosts, on_event=on_event)

    print(suite.assemble(report.results))
    violations = suite.violations(report.results)
    for line in violations:
        print(line)
    print(f"engine: {report.summary()}")

    digest = canonical_digest(report.results)
    if args.json:
        record = {
            "bench": "sweep",
            "suite": args.suite,
            "tasks": report.tasks,
            "executed": report.executed,
            "cache_hits": report.cache_hits,
            "cache_hit_rate": round(report.cache_hit_rate, 4),
            "dedup_hits": report.dedup_hits,
            "retries": report.retries,
            "workers": report.workers,
            "executor": report.executor,
            "wall_s": round(report.wall_s, 6),
            "key_s": round(report.key_s, 6),
            "probe_s": round(report.probe_s, 6),
            "publish_s": round(report.publish_s, 6),
            "publish_failures": report.publish_failures,
            "results_digest": digest,
            "source_fingerprint": source_fingerprint()[:16],
        }
        with open(args.json, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"record: {args.json}")
    print(f"results digest: {digest[:16]}")

    if args.require_cached:
        served = report.cache_hits + report.dedup_hits
        if cache is None or served < report.tasks:
            print(f"require-cached: FAILED — {served}/{report.tasks} "
                  "task(s) served from cache", file=sys.stderr)
            return EXIT_NOT_CACHED
        print(f"require-cached: ok ({served}/{report.tasks})")
    return 1 if violations else 0


def _cmd_worker(args) -> int:
    from .worker import serve_http, serve_stdio

    if args.stdio:
        return serve_stdio()
    print(f"worker: serving HTTP on {args.host}:{args.port} "
          "(Ctrl-C to stop)", file=sys.stderr)
    try:
        serve_http(args.port, host=args.host)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _read_status(cache_root) -> Optional[dict]:
    try:
        return json.loads((cache_root / STATUS_FILENAME).read_text())
    except (OSError, ValueError):
        return None


def _progress_line(record: dict) -> str:
    parts = [f"{record.get('done', 0)}/{record.get('total', 0)} done",
             f"{record.get('cache_hits', 0)} cached"]
    if record.get("dedup_hits"):
        parts.append(f"{record['dedup_hits']} dedup")
    if record.get("retries"):
        parts.append(f"{record['retries']} retried")
    if record.get("quarantined"):
        parts.append(f"{record['quarantined']} quarantined")
    state = record.get("state", "?")
    executor = record.get("executor", "?")
    return f"{state} [{executor}]: " + ", ".join(parts)


def _print_census(cache: ResultCache) -> None:
    stats = cache.stats()
    print(f"cache root:     {stats.root}")
    print(f"fingerprint:    {stats.fingerprint[:16]}")
    print(f"generations:    {stats.generations}")
    print(f"live entries:   {stats.entries} ({stats.bytes} bytes)")
    print(f"stale entries:  {stats.stale_entries} ({stats.stale_bytes} "
          "bytes, reclaimable via 'cache gc')")
    status = _read_status(cache.root)
    if status is not None:
        print(f"last sweep:     {_progress_line(status)}")


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        _print_census(cache)
    elif args.action == "gc":
        removed, freed = cache.gc()
        print(f"gc: removed {removed} stale entr{'y' if removed == 1 else 'ies'}, "
              f"freed {freed} bytes")
    else:
        removed, freed = cache.clear()
        print(f"clear: removed {removed} entr{'y' if removed == 1 else 'ies'}, "
              f"freed {freed} bytes")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "worker":
            return _cmd_worker(args)
        return _cmd_cache(args)
    except DCudaError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
