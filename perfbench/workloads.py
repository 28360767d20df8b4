"""The benchmark's workloads, result fingerprints and output checks.

Each workload is a list of :class:`repro.sweep.SweepConfig` records expanded
from a workload seed.  The seed shifts every seed axis by its width times the
seed, so two workload seeds never share a configuration and a claim can be
confirmed on a held-out seed.  The program only ever receives the expanded
configs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

#: Workload -> the grid whose configs, seed axis and reference it uses.
#: fig12-grid is the Figure 12 hot path (15 structural groups of 16 configs
#: sharing templates); zoo-cold gives every config its own structural group,
#: so materialisation dominates; fig12-resume runs fig12-grid's configs
#: through the result cache, the disk template tier and the worker pool.
GRID_OF = {"fig12-grid": "fig12-grid", "fig12-resume": "fig12-grid", "zoo-cold": "zoo-cold"}

#: The workload seed at which the stored reference fingerprints were made.
REFERENCE_SEED = 0

FIG12_POLICIES = ("block", "reuse", "copilot")
FIG12_BANDWIDTHS = (100.0, 400.0)
FIG12_SEEDS_PER_RUN = 8

ZOO_POLICIES = ("block", "copilot")
ZOO_FAILURES = ("none", "nic:1", "gpu", "server")
#: DeepSeek-V3's configs (about 4,000 events each) would make the kernel
#: dominate a workload meant to measure materialisation.
ZOO_EXCLUDED = ("DeepSeek-V3",)

#: Result fields compared bit for bit: the three headline floats as exact
#: hex strings, plus the executor's event count.
FINGERPRINT_FIELDS = ("iteration_time_s", "stage_time_s", "comm_bytes", "events")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def workers_for(workload: str, usable_cpus: int) -> int:
    """Pool size of a workload: only fig12-resume uses the pool."""
    return min(2, usable_cpus) if workload == "fig12-resume" else 0


def expand(workload: str, seed: int) -> List["SweepConfig"]:
    """The configs of ``workload`` at workload seed ``seed``."""
    from repro.sweep import FABRIC_BUILDERS, SWEEP_MODELS, SweepSpec

    if GRID_OF[workload] == "fig12-grid":
        base = seed * FIG12_SEEDS_PER_RUN
        spec = SweepSpec(
            fabrics=list(FABRIC_BUILDERS),
            models=["Mixtral-8x22B"],
            first_a2a_policies=FIG12_POLICIES,
            nic_bandwidths_gbps=FIG12_BANDWIDTHS,
            seeds=list(range(base, base + FIG12_SEEDS_PER_RUN)),
        )
    else:
        spec = SweepSpec(
            fabrics=list(FABRIC_BUILDERS),
            models=[name for name in SWEEP_MODELS if name not in ZOO_EXCLUDED],
            first_a2a_policies=ZOO_POLICIES,
            failures=ZOO_FAILURES,
            seeds=[seed],
        )
    return spec.expand()


def fingerprint(result) -> List[object]:
    """Exact, JSON-safe fingerprint of one :class:`SweepResult`."""
    return [
        float(result.iteration_time_s).hex(),
        float(result.stage_time_s).hex(),
        float(result.comm_bytes).hex(),
        int(result.events),
    ]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{GRID_OF[workload]}.json")


def load_reference(workload: str) -> Dict[str, List[object]]:
    """Config hash -> fingerprint stored for the workload's reference seed."""
    with open(reference_path(workload), "r", encoding="utf-8") as handle:
        return json.load(handle)["configs"]


def mismatches(
    got: Dict[str, List[object]], expected: Dict[str, List[object]]
) -> List[str]:
    """Hashes whose fingerprint differs from (or is missing in) ``expected``."""
    return sorted(h for h, value in got.items() if expected.get(h) != value)


def fig12_order_violations(
    configs: Sequence["SweepConfig"], times: Dict[str, float]
) -> List[Tuple[str, float, int]]:
    """The (policy, bandwidth, seed) slices breaking a Figure 12 ordering.

    The orderings are those of ``benchmarks/test_fig12_speedups.py``, with
    times normalised to the Fat-tree: MixNet below 1.6, below TopoOpt, and
    at most the over-subscribed Fat-tree plus 0.05.  ``times`` maps config
    hashes to iteration times.  A slice missing a fabric is skipped: the
    missing config already counts as failed.
    """
    slices: Dict[Tuple[str, float, int], Dict[str, float]] = {}
    for config in configs:
        config_hash = config.config_hash()
        if config_hash in times:
            key = (config.first_a2a_policy, config.nic_bandwidth_gbps, config.seed)
            slices.setdefault(key, {})[config.fabric] = times[config_hash]
    broken = []
    for key, members in sorted(slices.items()):
        try:
            base = members["Fat-tree"]
            mixnet = members["MixNet"] / base
            holds = (
                mixnet < 1.6
                and mixnet < members["TopoOpt"] / base
                and mixnet <= members["OverSub. Fat-tree"] / base + 0.05
            )
        except KeyError:
            continue
        if not holds:
            broken.append(key)
    return broken
