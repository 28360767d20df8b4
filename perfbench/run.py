"""The repository benchmark: sweep workloads in fresh processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig12-grid --seed 0 --seconds 30 --trace 0

Each sample is one fresh workload process (``child.py``): interpreter start,
``import repro.sweep``, a native-kernel build from an empty ``TMPDIR``, pool
warm-up, then one ``FoldedSweepRunner.run()`` over the workload's configs.
Samples repeat until ``--seconds`` have passed (at least three), and every
metric is the median over samples.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics, taken from
the traced samples, plus ``trace.overhead``: untraced over traced
configs/s, minus 1.

Every sample is checked: configs that raised, fingerprints that differ from
the stored reference (at the reference seed), fig12-resume results that
differ from a serial run of the same configs, traced results that differ
from untraced ones, and Figure 12 orderings that break all count as failed.
The simulator is a model that has not been validated against hardware; the
only paper results the repository holds are those orderings.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A per-run record with provenance
and raw samples goes to ``.perfbench/records/``.  The benchmark refuses to
run (exit 3) if a ``REPRO_*`` flag is set or the native kernel did not load,
and exits 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fewest samples a run takes, however short ``--seconds`` is.
MIN_SAMPLES = 3
#: A run that has not finished this long after it started is abandoned.
RUN_LIMIT_S = 170.0

SHM_WARNING = re.compile(
    r"resource_tracker: There appear to be \d+ leaked shared_memory objects"
)

END_TO_END_UNITS = {
    "configs_per_s": "configs/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "share",
}

#: Per-layer metric -> unit, in the order of the layers down the stack.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.kernel_build_s": "s",
    "setup.pool_spawn_s": "s",
    "moe.trace.self_s": "s",
    "moe.trace.calls": "count",
    "moe.gate.self_s": "s",
    "moe.gate.calls": "count",
    "fabric.region.self_s": "s",
    "fabric.region.builds": "count",
    "fabric.region.stamps": "count",
    "core.reconfigure.self_s": "s",
    "core.reconfigure.calls": "count",
    "core.reconfigure.circuits": "count",
    "core.runtime.materialise_s": "s",
    "core.runtime.dag_self_s": "s",
    "core.runtime.dag_tasks": "count",
    "sim.flows.admit_s": "s",
    "sim.flows.flows_admitted": "count",
    "sim.flows.kernel_s": "s",
    "sim.flows.batches": "count",
    "sim.flows.events": "count",
    "sim.flows.solve_rounds": "count",
    "sim.flows.rounds_replayed": "count",
    "sim.flows.replay_ratio": "ratio",
    "sim.executor.bookkeeping_s": "s",
    "sweep.template.built": "count",
    "sweep.template.memory": "count",
    "sweep.template.disk": "count",
    "sweep.template.load_s": "s",
    "sweep.template.save_s": "s",
    "sweep.cache.hits": "count",
    "sweep.cache.misses": "count",
    "sweep.cache.read_s": "s",
    "sweep.cache.write_s": "s",
    "sweep.runner.fallbacks": "count",
    "sweep.pool.wait_s": "s",
    "sweep.pool.acks": "count",
    "sweep.pool.worker_busy_s": "s",
    "sweep.pool.respawns": "count",
    "sweep.pool.shm_warnings": "count",
    "trace.overhead": "ratio",
}


class Refused(Exception):
    """The run cannot be recorded; the message says why."""


def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".c", ".h")):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_revision() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(workload: str) -> Dict[str, object]:
    import cffi
    import numpy

    usable = len(os.sched_getaffinity(0))
    return {
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi.__version__,
        "load_average": os.getloadavg(),
        "workers": workloads.workers_for(workload, usable),
    }


class Launcher:
    """Starts workload processes one at a time inside a scratch directory."""

    def __init__(self, scratch: str, workload: str, seed: int) -> None:
        self.scratch = scratch
        self.workload = workload
        self.seed = seed
        self.count = 0
        self.give_up = time.monotonic() + RUN_LIMIT_S

    def launch(self, trace: bool = False, prime: bool = False,
               state: Optional[str] = None) -> dict:
        """Run one process; returns its record plus its stderr warning count.

        ``state`` is a directory holding ``cache`` and ``templates``; the
        process works on a private copy of it.
        """
        self.count += 1
        work = os.path.join(self.scratch, f"sample-{self.count}")
        tmp = os.path.join(work, "tmp")
        os.makedirs(tmp)
        out = os.path.join(work, "record.json")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--out", out,
        ]
        if trace:
            command.append("--trace")
        if prime:
            command.append("--prime")
        if state is not None:
            cache = os.path.join(work, "cache")
            templates = os.path.join(work, "templates")
            if not prime:
                shutil.copytree(os.path.join(state, "cache"), cache)
                shutil.copytree(os.path.join(state, "templates"), templates)
            command += ["--cache-dir", cache, "--template-dir", templates]
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, TMPDIR=tmp,
                   PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        env["PERFBENCH_LAUNCH"] = repr(time.monotonic())
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, stderr = process.communicate(
                timeout=max(1.0, self.give_up - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise RuntimeError(f"the run did not finish within {RUN_LIMIT_S} s")
        if process.returncode != 0:
            raise RuntimeError(
                f"workload process exited with {process.returncode}:\n{stderr[-4000:]}"
            )
        with open(out, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        if not record["native"]:
            raise Refused("the native kernel did not load; the numbers would "
                          "measure the numpy fallback")
        record["counts"]["sweep.pool.shm_warnings"] = len(SHM_WARNING.findall(stderr))
        record["traced"] = trace
        if prime:
            for name in ("cache", "templates"):
                shutil.move(os.path.join(work, name), os.path.join(state, name))
        shutil.rmtree(work)
        return record


def layer_metrics(record: dict) -> Dict[str, float]:
    """Per-layer values of one traced sample."""
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    counts: Dict[str, float] = dict(record["counts"])
    for snapshot in record["spans"]:
        for span in snapshot["spans"]:
            name = span["name"]
            calls[name] = calls.get(name, 0) + span["calls"]
            total[name] = total.get(name, 0.0) + span["total_s"]
            own[name] = own.get(name, 0.0) + span["self_s"]
        for name, value in snapshot["counts"].items():
            counts[name] = counts.get(name, 0) + value
    executed = counts["sim.flows.solve_rounds"]
    replayed = counts["sim.flows.rounds_replayed"]
    values = {
        **{name: record["setup"][name] for name in
           ("setup.import_s", "setup.kernel_build_s", "setup.pool_spawn_s")},
        "moe.trace.self_s": own.get("moe.trace", 0.0),
        "moe.trace.calls": calls.get("moe.trace", 0),
        "moe.gate.self_s": own.get("moe.gate", 0.0),
        "moe.gate.calls": calls.get("moe.gate", 0),
        "fabric.region.self_s": own.get("fabric.region.build", 0.0)
        + own.get("fabric.region.stamp", 0.0),
        "fabric.region.builds": calls.get("fabric.region.build", 0),
        "fabric.region.stamps": calls.get("fabric.region.stamp", 0),
        "core.reconfigure.self_s": own.get("core.reconfigure", 0.0),
        "core.reconfigure.calls": calls.get("core.reconfigure", 0),
        "core.runtime.materialise_s": total.get("core.runtime.materialise", 0.0),
        "core.runtime.dag_self_s": own.get("core.runtime.materialise", 0.0),
        "sim.flows.admit_s": own.get("sim.flows.admit", 0.0),
        "sim.flows.kernel_s": own.get("sim.flows.kernel", 0.0),
        "sim.flows.batches": calls.get("sim.flows.kernel", 0),
        "sim.flows.replay_ratio": replayed / (executed + replayed) if executed + replayed else 0.0,
        "sim.executor.bookkeeping_s": own.get("sim.executor.bookkeeping", 0.0),
        "sweep.template.load_s": total.get("sweep.template.load", 0.0),
        "sweep.template.save_s": total.get("sweep.template.save", 0.0),
        "sweep.cache.read_s": record["spans"][0]["cache_read_s"],
        "sweep.pool.wait_s": total.get("sweep.pool.wait", 0.0),
    }
    for name in PER_LAYER_UNITS:
        if name not in values and name != "trace.overhead":
            values[name] = counts.get(name, 0)
    return values


def checked(workload: str, record: dict, configs, expectations: List[dict]):
    """(configs that failed, Figure 12 slices out of order) of one sample."""
    got = record["fingerprints"]
    bad = set(record["failed"])
    for expected in expectations:
        bad.update(workloads.mismatches(got, expected))
    broken = []
    if workloads.GRID_OF[workload] == "fig12-grid":
        times = {h: float.fromhex(fp[0]) for h, fp in got.items()}
        broken = workloads.fig12_order_violations(configs, times)
    return len(bad), broken


def configs_per_s(record: dict) -> float:
    return (record["attempted"] - len(record["failed"])) / record["run_s"]


def measure(workload: str, seed: int, seconds: int, trace: bool,
            scratch: str) -> Tuple[dict, dict]:
    """(the result line, the record's extra detail) of one run."""
    configs = workloads.expand(workload, seed)
    launcher = Launcher(scratch, workload, seed)
    expectations: List[dict] = []
    if seed == workloads.REFERENCE_SEED:
        expectations.append(workloads.load_reference(workload))
    state = None
    if workload == "fig12-resume":
        state = os.path.join(scratch, "state")
        os.makedirs(state)
        primed = launcher.launch(prime=True, state=state)
        expectations.append(primed["fingerprints"])

    samples: List[dict] = []
    deadline = time.monotonic() + seconds
    while len(samples) < MIN_SAMPLES * (2 if trace else 1) or time.monotonic() < deadline:
        traced = trace and len(samples) % 2 == 1
        record = launcher.launch(trace=traced, state=state)
        if not expectations:
            # Off the reference seed, samples must at least agree with each
            # other (and traced samples with untraced ones).
            expectations.append(record["fingerprints"])
        samples.append(record)

    attempted = sum(r["attempted"] for r in samples)
    failed = 0
    broken = set()
    for record in samples:
        bad, out_of_order = checked(workload, record, configs, expectations)
        failed += bad
        broken.update(out_of_order)
    plain = [r for r in samples if not r["traced"]]
    if trace:
        traced = [layer_metrics(r) for r in samples if r["traced"]]
        values = {name: statistics.median(v[name] for v in traced)
                  for name in traced[0]}
        values["trace.overhead"] = statistics.median(
            configs_per_s(r) for r in plain
        ) / statistics.median(configs_per_s(r) for r in samples if r["traced"]) - 1
        units = PER_LAYER_UNITS
    else:
        values = {
            "configs_per_s": statistics.median(configs_per_s(r) for r in plain),
            "setup_s": statistics.median(r["setup"]["setup_s"] for r in plain),
            "peak_rss_mib": statistics.median(r["rss_mib"]["peak"] for r in plain),
            "success_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    for record in samples:
        del record["fingerprints"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    checks = {"fig12_order_violations": sorted(broken)}
    return result, {"checks": checks, "samples": samples}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GRID_OF))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "sweep", "__init__.py")):
        print(f"error: the program's source is missing under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, SRC)
    from repro.flags import FLAGS

    set_flags = sorted(name for name in FLAGS if name in os.environ)
    if set_flags:
        print(f"refused: {', '.join(set_flags)} set; the benchmark measures the "
              f"defaults", file=sys.stderr)
        return 3
    info = provenance(args.workload)
    records = os.path.join(ROOT, ".perfbench", "records")
    scratch = os.path.join(ROOT, ".perfbench", f"scratch-{os.getpid()}")
    os.makedirs(records, exist_ok=True)
    try:
        result, detail = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    except Refused as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "provenance": info, **result, **detail},
                  handle, indent=1)
    print("provenance " + json.dumps(info, sort_keys=True))
    print("checks " + json.dumps(detail["checks"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
