"""Command-line sweep service: ``python -m repro.exec``.

Subcommands::

    run <suite>     execute a named sweep (chaos, fig6..fig11, topo,
                    ml, simperf) on any executor transport
    worker          serve jobs: --stdio (pipe fleet member) or
                    --port N (HTTP worker daemon)
    status          census the result cache + live sweep progress
    cache stats     census with optional per-shard breakdown
    cache gc        delete entries from stale source fingerprints
    cache clear     delete every cache entry

``run`` prints the suite's table, an engine summary line, and writes the
machine-readable sweep record to ``BENCH_sweep.json`` at the repo root:
wall-clock, the coordinator's phase times (keys, probes, publishes),
worker count, executor, cache hit rate, and the canonical digest of the
merged result list.  The digest is the bit-identity witness — it is a
pure function of the spec list, so any two invocations of the same suite
at the same source fingerprint must print the same digest regardless of
executor, worker count, completion order, cache state, or worker deaths
survived along the way.

``--require-cached`` exits with status 3 unless *every* cacheable task
was served from the cache — CI uses it to assert that a warm replay does
zero simulation work.

Examples::

    PYTHONPATH=src python -m repro.exec run chaos --seeds 50 --workers 4
    PYTHONPATH=src python -m repro.exec run fig6 --workers 2
    PYTHONPATH=src python -m repro.exec worker --port 8791   # terminal 1
    PYTHONPATH=src python -m repro.exec run fig6 --executor http \\
        --hosts 127.0.0.1:8791                               # terminal 2
    PYTHONPATH=src python -m repro.exec run fig6 --require-cached
    PYTHONPATH=src python -m repro.exec status
    PYTHONPATH=src python -m repro.exec cache stats --shard
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
from .fingerprint import repo_root, source_fingerprint
from .spec import canonical_digest
from .suites import SUITE_NAMES, build_suite

__all__ = ["main"]

#: Exit status for ``--require-cached`` violations (2 is argparse's).
EXIT_NOT_CACHED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="Deterministic sweep service with pluggable "
                    "executors and a sharded content-addressed cache.")
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
    run.add_argument("--hosts", type=str, default=None, metavar="H:P,...",
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
                     help="sweep record path (default: BENCH_sweep.json "
                          "at the repo root)")
    run.add_argument("--no-json", action="store_true",
                     help="skip writing the sweep record")
    run.add_argument("--require-cached", action="store_true",
                     help=f"exit {EXIT_NOT_CACHED} unless every cacheable "
                          "task was a cache hit")
    # Suite shape knobs (each suite reads the subset it understands).
    run.add_argument("--seeds", type=int, default=50,
                     help="chaos: number of fault seeds (default 50)")
    run.add_argument("--nodes", type=int, default=2,
                     help="chaos: cluster size (default 2)")
    run.add_argument("--ranks", type=int, default=2,
                     help="chaos: ranks per device (default 2)")
    run.add_argument("--steps", type=int, default=2,
                     help="chaos: diffusion steps (default 2)")
    run.add_argument("--iterations", type=int, default=30,
                     help="fig6: ping-pong iterations (default 30)")
    run.add_argument("--no-verify", action="store_true",
                     help="fig9-11: skip reference verification")
    run.add_argument("--full", action="store_true",
                     help="simperf: figure-scale workload")
    run.add_argument("--topology", type=str, default=None,
                     metavar="KINDS",
                     help="topo/ml: comma-separated interconnect kinds "
                          "(topo default: flat,fat_tree,ring; ml "
                          "default: flat,fat_tree)")
    run.add_argument("--topo-nodes", type=int, default=4,
                     help="topo/ml: nodes per topology (default 4)")
    run.add_argument("--topo-gpus", type=int, default=2,
                     help="topo/ml: GPUs per node (default 2)")
    run.add_argument("--backend", type=str, default=None, metavar="NAMES",
                     help="topo/ml/simperf: comma-separated "
                          "communication backends to sweep (proxy, "
                          "device, stream; default: proxy)")

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

    status = sub.add_parser("status",
                            help="census the result cache + live sweep "
                                 "progress")
    status.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR)

    cache = sub.add_parser("cache", help="cache maintenance")
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: census; gc: drop stale generations; "
                            "clear: drop everything")
    cache.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR)
    cache.add_argument("--shard", action="store_true",
                       help="stats: per-shard breakdown of the current "
                            "generation")

    return parser


def _cmd_run(args) -> int:
    kinds = (tuple(k.strip() for k in args.topology.split(",") if k.strip())
             if args.topology else None)
    backends = (tuple(b.strip() for b in args.backend.split(",")
                      if b.strip())
                if args.backend else None)
    suite = build_suite(args.suite, seeds=args.seeds, nodes=args.nodes,
                        ranks=args.ranks, steps=args.steps,
                        iterations=args.iterations,
                        verify=not args.no_verify, full=args.full,
                        topology=kinds, topo_nodes=args.topo_nodes,
                        topo_gpus=args.topo_gpus, backends=backends)
    workers = (args.workers if args.workers is not None
               else default_workers())
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    hosts = (tuple(h.strip() for h in args.hosts.split(",") if h.strip())
             if args.hosts else None)

    on_event = None
    if args.progress:
        def on_event(event):
            end = "\n" if event.kind == "finish" else ""
            print(f"\r{event.line()}", end=end, file=sys.stderr,
                  flush=True)

    report = run_specs(suite.specs, workers=workers, cache=cache,
                       timeout=args.timeout, executor=args.executor,
                       hosts=hosts, on_event=on_event)

    print(suite.assemble(report.results))
    print(f"engine: {report.summary()}")

    digest = canonical_digest(report.results)
    if not args.no_json:
        path = args.json or str(repo_root() / "BENCH_sweep.json")
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
        with open(path, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"record: {path}")
    print(f"results digest: {digest[:16]}")

    if args.require_cached:
        cacheable = sum(1 for s in suite.specs if s.cacheable)
        served = report.cache_hits + report.dedup_hits
        if cache is None or served < cacheable:
            print(f"require-cached: FAILED — {served}/"
                  f"{cacheable} cacheable task(s) served from cache",
                  file=sys.stderr)
            return EXIT_NOT_CACHED
        print(f"require-cached: ok ({served}/{cacheable})")
    return 0


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


def _print_census(cache: ResultCache, shard: bool = False) -> None:
    stats = cache.stats()
    print(f"cache root:     {stats.root}")
    print(f"fingerprint:    {stats.fingerprint[:16]}")
    print(f"generations:    {stats.generations}")
    print(f"shards:         {stats.shards or '(generation absent)'}")
    print(f"live entries:   {stats.entries} ({stats.bytes} bytes)")
    print(f"stale entries:  {stats.stale_entries} ({stats.stale_bytes} "
          "bytes, reclaimable via 'cache gc')")
    status = _read_status(cache.root)
    if status is not None:
        print(f"last sweep:     {_progress_line(status)}")
    if shard:
        if not stats.shard_breakdown:
            print("shard breakdown: (no sharded entries yet)")
        for row in stats.shard_breakdown:
            print(f"  {row.name}: {row.entries} entr"
                  f"{'y' if row.entries == 1 else 'ies'}, "
                  f"{row.bytes} bytes")


def _cmd_status(args) -> int:
    _print_census(ResultCache(args.cache_dir))
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        _print_census(cache, shard=args.shard)
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
        if args.command == "status":
            return _cmd_status(args)
        return _cmd_cache(args)
    except DCudaError as exc:  # pragma: no cover - CLI error surface
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
