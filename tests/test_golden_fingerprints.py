"""Golden result fingerprints: the simulator's numbers, pinned bit for bit.

``golden_fingerprints.json`` holds, for a small mixed grid (Fat-tree and
MixNet; ``block``, ``reuse`` and ``copilot``; failures ``none`` and
``nic:1``; two seeds), each config's ``iteration_time_s``,
``stage_time_s`` and ``comm_bytes`` as exact float hex strings plus its
executor event count.  The file was written before the flow plane became
array-native (DESIGN.md §11) and must never be regenerated to make a test
pass: folded and unfolded runs now share one flow plane and one kernel, so a
differential test between them cannot see a bug common to both, while a
stored reference can.  Three legs must match it exactly: folded runs at
workers 0 and 2, and the per-event scalar oracle with the kernel
unavailable.

Regenerate only for a deliberate, documented model change::

    PYTHONPATH=src python tests/test_golden_fingerprints.py --write
"""

import json
import os
import sys

import pytest

from repro.sweep import SweepSpec
from repro.sweep.runner import FoldedSweepRunner, run_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_fingerprints.json")

GOLDEN_SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x7B"],
    first_a2a_policies=["block", "reuse", "copilot"],
    failures=["none", "nic:1"],
    seeds=[0, 1],
    num_servers=16,
)


def fingerprint(result):
    return [
        float(result.iteration_time_s).hex(),
        float(result.stage_time_s).hex(),
        float(result.comm_bytes).hex(),
        int(result.events),
    ]


def fingerprints(results):
    return {result.config_hash: fingerprint(result) for result in results}


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["configs"]


@pytest.fixture(scope="module")
def golden():
    configs = load_golden()
    assert len(configs) == len(GOLDEN_SPEC.expand()) == 24
    return configs


@pytest.mark.parametrize("workers", [0, 2])
def test_folded_path_matches_golden(golden, workers):
    with FoldedSweepRunner(GOLDEN_SPEC, workers=workers) as runner:
        assert fingerprints(runner.run()) == golden


def test_per_event_path_matches_golden(golden, without_kernel):
    """The scalar oracle, solving once per event through the per-event
    primitives (as on a host without a C compiler), lands on the same bits
    on this grid."""
    with without_kernel():
        results = [run_config(config) for config in GOLDEN_SPEC.expand()]
    assert not any(result.solve_rounds for result in results)  # no kernel ran
    assert fingerprints(results) == golden


def test_folded_path_builds_no_flow_objects(golden, monkeypatch):
    """The production path admits, advances and retires flows as arrays: with
    every way of making a Flow object or a flow-id string patched to raise,
    a folded run still completes and matches the golden values."""
    from repro.core.caches import clear_all_caches
    from repro.sim.flows import Flow, FluidNetwork

    def forbidden(*args, **kwargs):
        raise AssertionError("per-flow object built on the folded path")

    monkeypatch.setattr(Flow, "__init__", forbidden)
    monkeypatch.setattr(Flow, "make", forbidden)
    monkeypatch.setattr(FluidNetwork, "_origins", forbidden)
    clear_all_caches()  # no plan or template from an earlier test
    assert fingerprints(FoldedSweepRunner(GOLDEN_SPEC).run()) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    payload = {
        "fields": ["iteration_time_s", "stage_time_s", "comm_bytes", "events"],
        "configs": dict(sorted(
            fingerprints(FoldedSweepRunner(GOLDEN_SPEC).run()).items()
        )),
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
