"""Regenerate the stored reference fingerprints.

Run from the root of a checkout of the commit the references should pin::

    PYTHONPATH=src python3 perfbench/make_reference.py

Each workload grid runs serially at the reference seed, and every config's
fingerprint (see ``workloads.fingerprint``) is written to
``perfbench/reference/<grid>.json``.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from run import git_revision, source_digest


def main() -> int:
    from repro.sweep import FoldedSweepRunner

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for grid in sorted(set(workloads.GRID_OF.values())):
        results = FoldedSweepRunner(workloads.expand(grid, workloads.REFERENCE_SEED)).run()
        payload = {
            "workload": grid,
            "seed": workloads.REFERENCE_SEED,
            "git_revision": git_revision(),
            "source_digest": source_digest(),
            "fields": list(workloads.FINGERPRINT_FIELDS),
            "configs": {r.config_hash: workloads.fingerprint(r) for r in results},
        }
        with open(workloads.reference_path(grid), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{grid}: {len(results)} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
