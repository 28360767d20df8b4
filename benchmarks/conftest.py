"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints its
series as ``<experiment> | <x> | <series> | <value>`` rows so the output can
be diffed against the paper's reported numbers (see EXPERIMENTS.md).

The simulations use smaller default cluster sizes than the paper's 1024-GPU
setup so the whole harness completes in minutes; the regional structure (and
therefore the fabric comparison) is identical because a regional OCS never
spans more than one EP group.  Set ``MIXNET_BENCH_FULL=1`` to run the paper's
full scale.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Iterable, Sequence

import pytest

from repro.cluster import ClusterSpec, simulation_cluster
from repro.sweep.registry import FABRIC_BUILDERS

FULL_SCALE = os.environ.get("MIXNET_BENCH_FULL", "0") == "1"


def pytest_addoption(parser):
    # Registered only when this directory is named on the command line
    # (``pytest benchmarks/...``): read it with a default of False.
    parser.addoption(
        "--record-bench",
        action="store_true",
        default=False,
        help="rewrite the tracked BENCH_*.json records from this run "
             "(benchmarks still assert every floor without it)",
    )


def record_bench(request) -> bool:
    """Whether this run may rewrite the tracked ``BENCH_*.json`` files."""
    return bool(request.config.getoption("--record-bench", default=False))


#: Servers used for performance simulations (128 = the paper's 1024 GPUs).
BENCH_SERVERS = 128 if FULL_SCALE else 32


def bench_cluster(bandwidth_gbps: float, ocs_nics: int = 6,
                  servers: int | None = None) -> ClusterSpec:
    return simulation_cluster(
        servers or BENCH_SERVERS, nic_bandwidth_gbps=bandwidth_gbps, ocs_nics=ocs_nics
    )


def all_fabrics(cluster: ClusterSpec) -> Dict[str, object]:
    """The five fabrics of Figure 12, from the sweep engine's registry."""
    return {name: build(cluster) for name, build in FABRIC_BUILDERS.items()}


#: Capture manager grabbed by the autouse fixture below so the series rows
#: remain visible in the benchmark log despite pytest's output capturing.
_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _expose_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(experiment: str, rows: Iterable[Sequence[object]]) -> None:
    print()
    print(f"==== {experiment} ====")
    for row in rows:
        print(f"{experiment} | " + " | ".join(str(item) for item in row))
    sys.stdout.flush()


def print_series(experiment: str, rows: Iterable[Sequence[object]]) -> None:
    """Emit one benchmark's series in a uniform, grep-able format.

    Output capturing is temporarily disabled so the rows land in the benchmark
    log (``pytest benchmarks/ --benchmark-only | tee bench_output.txt``).
    """
    rows = list(rows)
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            _emit(experiment, rows)
    else:
        _emit(experiment, rows)


@pytest.fixture
def run_once(benchmark):
    """Run the benchmarked callable exactly once (simulations are expensive)."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
