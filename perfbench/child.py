"""One workload process: set up, run the sweep once, write a JSON record.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` on the
program's ``src``, an empty ``TMPDIR`` (so the native kernel is built from
scratch) and ``PERFBENCH_LAUNCH`` holding the ``time.monotonic()`` reading
taken just before the launch.  Everything from launch until the runner is
ready counts as set-up.

``--prime`` runs the same configs serially into ``--cache-dir`` and
``--template-dir`` and then drops the cached results of odd seeds: the state
fig12-resume starts from.  It is never timed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import time

import tracer
import workloads


def _peak_rss_mib() -> dict:
    """Peak resident set of this process and of each live pool worker."""
    workers = []
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    workers.append(int(line.split()[1]) / 1024.0)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"self": own, "workers": workers, "peak": max([own] + workers)}


def _run(runner, configs):
    """``runner.run()`` timed; failed configs are re-run only to be checked."""
    from repro.sweep import FoldedSweepRunner, SweepRunError

    start = time.perf_counter()
    try:
        results = runner.run()
        failed = []
    except SweepRunError as error:
        elapsed = time.perf_counter() - start
        failed = sorted(e.config_hash for e in error.errors)
        skip = set(failed)
        rest = [c for c in configs if c.config_hash() not in skip]
        results = FoldedSweepRunner(rest, cache_dir=runner.cache_dir).run()
        return results, failed, elapsed
    return results, failed, time.perf_counter() - start


def _result_counts(results, workers: int) -> dict:
    fresh = [r for r in results if not r.from_cache]
    return {
        "sweep.cache.hits": len(results) - len(fresh),
        "sweep.cache.misses": len(fresh),
        "sweep.cache.write_s": sum(r.store_s for r in fresh),
        "sweep.runner.fallbacks": sum(r.template_source == "none" for r in fresh),
        "sim.flows.events": sum(r.events for r in fresh),
        "sim.flows.solve_rounds": sum(r.solve_rounds for r in fresh),
        "sim.flows.rounds_replayed": sum(r.rounds_replayed for r in fresh),
        # Phase times, not wall_time_s: a folded config's wall time spans
        # the whole fold it ran in, so wall times overlap.
        "sweep.pool.worker_busy_s": (
            sum(r.setup_s + r.solve_s + r.advance_s + r.store_s for r in fresh)
            if workers > 1 else 0.0
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GRID_OF))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--prime", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--template-dir")
    args = parser.parse_args()
    launch = float(os.environ["PERFBENCH_LAUNCH"])

    started = time.monotonic()
    import repro.sweep
    from repro.sim import _native

    imported = time.monotonic()
    native = _native.native_available()
    built = time.monotonic()
    if args.trace:
        tracer.install()
    configs = workloads.expand(args.workload, args.seed)
    workers = 0 if args.prime else workloads.workers_for(
        args.workload, len(os.sched_getaffinity(0))
    )
    runner = repro.sweep.FoldedSweepRunner(
        configs, cache_dir=args.cache_dir, template_dir=args.template_dir,
        workers=workers,
    )
    try:
        spawning = time.monotonic()
        runner.warm_up()
        ready = time.monotonic()
        results, failed, run_s = _run(runner, configs)
        record = {
            "native": native,
            "workers": workers,
            "setup": {
                "setup_s": ready - launch,
                "setup.interpreter_s": started - launch,
                "setup.import_s": imported - started,
                "setup.kernel_build_s": built - imported,
                "setup.pool_spawn_s": ready - spawning,
            },
            "run_s": run_s,
            "attempted": len(configs),
            "failed": failed,
            "cached": sorted(r.config_hash for r in results if r.from_cache),
            "fingerprints": {r.config_hash: workloads.fingerprint(r) for r in results},
            "counts": _result_counts(results, workers),
        }
        if args.trace:
            record["spans"] = [tracer.snapshot()] + tracer.collect_workers()
        record["rss_mib"] = _peak_rss_mib()
    finally:
        runner.close()
    if args.prime:
        for config in configs:
            if config.seed % 2:
                os.remove(os.path.join(args.cache_dir, f"{config.config_hash()}.json"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
