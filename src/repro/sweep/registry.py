"""Name-based registries mapping sweep configurations to simulator objects.

Sweep configurations must be picklable and hashable, so they reference
fabrics, models and failure scenarios *by name*; this module owns the
name → object resolution used by the worker processes.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional

from repro.cluster.spec import ClusterSpec
from repro.core.failures import FailureScenario
from repro.fabric import (
    Fabric,
    FatTreeFabric,
    MixNetFabric,
    RailOptimizedFabric,
    TopoOptFabric,
)
from repro.moe.models import MODEL_ZOO, QWEN_MOE_EP32, MoEModelConfig, get_model

#: Fabric name -> builder, matching the five fabrics of the paper's Figure 12.
#: Each builder is a :class:`Fabric` subclass or a ``functools.partial`` of
#: one, so :func:`fabric_reconfigurable` can read the class without building.
FABRIC_BUILDERS: Dict[str, Callable[[ClusterSpec], Fabric]] = {
    "Fat-tree": FatTreeFabric,
    "OverSub. Fat-tree": functools.partial(FatTreeFabric, oversubscription=3.0),
    "Rail-optimized": RailOptimizedFabric,
    "TopoOpt": TopoOptFabric,
    "MixNet": MixNetFabric,
}

#: Models addressable in sweeps.  Extends the zoo with named variants whose
#: ``name`` attribute alone would not distinguish them (e.g. the EP-32 Qwen
#: configuration simulated in §7.3).
SWEEP_MODELS: Dict[str, MoEModelConfig] = {
    **MODEL_ZOO,
    "Qwen-MoE-EP32": QWEN_MOE_EP32,
}


def build_fabric(name: str, cluster: ClusterSpec) -> Fabric:
    """Instantiate a registered fabric on the given cluster."""
    try:
        builder = FABRIC_BUILDERS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown fabric {name!r}; known: {sorted(FABRIC_BUILDERS)}"
        ) from exc
    return builder(cluster)


def fabric_reconfigurable(name: str) -> bool:
    """``Fabric.reconfigurable`` of a registered fabric, read off its class."""
    builder = FABRIC_BUILDERS[name]
    return getattr(builder, "func", builder).reconfigurable


def resolve_model(name: str) -> MoEModelConfig:
    """Look up a sweep model by name (registry first, then the loose zoo)."""
    if name in SWEEP_MODELS:
        return SWEEP_MODELS[name]
    return get_model(name)


def parse_failure(spec: str) -> Optional[FailureScenario]:
    """Parse a failure-scenario string into a :class:`FailureScenario`.

    Grammar (all server indices are region-local positions):

    * ``"none"`` — no failure (returns ``None``);
    * ``"nic:<count>"`` or ``"nic:<count>@<server>"`` — EPS NIC failures;
    * ``"gpu"`` or ``"gpu@<server>"`` — one GPU failure;
    * ``"server"`` or ``"server@<server>"`` — a full server failure.
    """
    text = spec.strip().lower()
    if text in ("", "none"):
        return None
    kind, _, server_part = text.partition("@")
    server = int(server_part) if server_part else 0
    kind, _, count_part = kind.partition(":")
    if kind == "nic":
        count = int(count_part) if count_part else 1
        return FailureScenario.nic_failures(count, server=server)
    if count_part:
        raise ValueError(f"failure kind {kind!r} takes no count (got {spec!r})")
    if kind == "gpu":
        return FailureScenario.gpu_failure(server=server)
    if kind == "server":
        return FailureScenario.server_failure(server=server)
    raise ValueError(
        f"unknown failure scenario {spec!r}; expected none, nic:<n>[@s], "
        f"gpu[@s] or server[@s]"
    )
