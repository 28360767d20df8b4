"""Task DAG for one training iteration.

The reproduction's stand-in for the FlexFlow task graph (§7.1): a directed
acyclic graph of *tasks* — compute phases, communication phases and OCS
reconfigurations — whose dependencies encode the MoE block structure of
Figure 1b and the reconfiguration timeline of Figure 20.  The executor
(:mod:`repro.sim.executor`) runs the graph over a fluid network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class TaskKind(str, Enum):
    """Categories of simulated work."""

    COMPUTE = "compute"
    COMM = "comm"
    RECONFIG = "reconfig"
    BARRIER = "barrier"


class RouteKind(str, Enum):
    """Which fabric path a flow should take."""

    EP = "ep"      # expert-parallel path (OCS circuit if available)
    EPS = "eps"    # electrical packet-switched path
    INTRA = "intra"  # stays on the server's NVSwitch


#: A flow's route: ``(src_server, dst_server, route kind)``.
RouteKey = Tuple[int, int, RouteKind]


@dataclass(frozen=True)
class FlowSpec:
    """One server-to-server transfer inside a communication task."""

    src_server: int
    dst_server: int
    size_bytes: float
    route: RouteKind = RouteKind.EP

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")


@dataclass(frozen=True, eq=False)
class AdmissionPlan:
    """One communication task's flows, staged as arrays (DESIGN.md §11).

    ``sizes`` and ``thresholds`` hold each admitted flow's byte count and
    finish threshold (``max(1e-3, 1e-9 * size)``, the expression
    :class:`~repro.sim.flows.Flow` uses); ``route_of`` maps each flow to
    its ``(src, dst, route)`` key in ``route_keys``, which lists every
    distinct key once in order of first use.  Flows keep ``flow_specs``
    order with zero-size specs dropped, so the executor admits exactly the
    flows (and accumulates exactly the ``comm_bytes``) of a spec-by-spec
    loop.  Plans are shared read-only: the structural template builds one
    per task and numeric stamp and hands it to every config of a fold.
    """

    sizes: np.ndarray
    thresholds: np.ndarray
    route_of: np.ndarray
    route_keys: Tuple[RouteKey, ...]

    def __len__(self) -> int:
        return len(self.sizes)

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[FlowSpec],
        shared_keys: Optional[Dict[RouteKey, RouteKey]] = None,
    ) -> "AdmissionPlan":
        """Stage ``specs``: zero-size specs skipped, flows in spec order.

        ``shared_keys`` (key -> itself) lets plans built together hold one
        tuple per distinct route key instead of one per plan.
        """
        kept = [spec for spec in specs if spec.size_bytes > 0]
        sizes = np.array([spec.size_bytes for spec in kept], dtype=np.float64)
        keys = [(spec.src_server, spec.dst_server, spec.route) for spec in kept]
        if shared_keys is not None:
            keys = [shared_keys.setdefault(key, key) for key in keys]
        index_of = dict.fromkeys(keys)
        if len(index_of) == len(keys):
            route_of = np.arange(len(keys), dtype=np.int32)
        else:
            for route, key in enumerate(index_of):
                index_of[key] = route
            route_of = np.array([index_of[key] for key in keys], dtype=np.int32)
        return cls(
            sizes=sizes,
            thresholds=np.maximum(1e-3, 1e-9 * sizes),
            route_of=route_of,
            route_keys=tuple(index_of),
        )


@dataclass
class Task:
    """A node of the iteration DAG.

    Attributes:
        task_id: Unique name.
        kind: Task category.
        duration_s: Duration for COMPUTE / RECONFIG / BARRIER tasks.
        flow_specs: Transfers for COMM tasks (empty for other kinds).
        deps: Ids of tasks that must finish before this one starts.
        resource: Optional label (e.g. ``"gpu:s0"``) for bookkeeping/stats.
        on_start: Callback invoked when the task starts (e.g. none needed).
        on_complete: Callback invoked when the task finishes — MixNet uses
            this to install the new OCS circuits at the end of a RECONFIG task.
        admission: Optional pre-staged :class:`AdmissionPlan` equivalent
            to ``flow_specs`` (COMM tasks only); ``None`` means the executor
            stages ``flow_specs`` itself when the task starts.
    """

    task_id: str
    kind: TaskKind
    duration_s: float = 0.0
    flow_specs: List[FlowSpec] = field(default_factory=list)
    deps: List[str] = field(default_factory=list)
    resource: Optional[str] = None
    on_start: Optional[Callable[[], None]] = None
    on_complete: Optional[Callable[[], None]] = None
    admission: Optional[AdmissionPlan] = None

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.kind is not TaskKind.COMM and self.flow_specs:
            raise ValueError(f"{self.kind} task {self.task_id!r} cannot carry flows")


class TaskGraph:
    """A DAG of :class:`Task` objects."""

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}

    # ----------------------------------------------------------------- access
    @property
    def tasks(self) -> Dict[str, Task]:
        return dict(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def task(self, task_id: str) -> Task:
        return self._tasks[task_id]

    # --------------------------------------------------------------- building
    def add(self, task: Task) -> Task:
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id {task.task_id!r}")
        for dep in task.deps:
            if dep not in self._tasks:
                raise ValueError(
                    f"task {task.task_id!r} depends on unknown task {dep!r}; "
                    "add dependencies before dependents"
                )
        self._tasks[task.task_id] = task
        return task

    def add_compute(
        self,
        task_id: str,
        duration_s: float,
        deps: Sequence[str] = (),
        resource: Optional[str] = None,
    ) -> Task:
        return self.add(
            Task(
                task_id=task_id,
                kind=TaskKind.COMPUTE,
                duration_s=duration_s,
                deps=list(deps),
                resource=resource,
            )
        )

    def add_comm(
        self,
        task_id: str,
        flow_specs: Sequence[FlowSpec],
        deps: Sequence[str] = (),
        resource: Optional[str] = None,
    ) -> Task:
        return self.add(
            Task(
                task_id=task_id,
                kind=TaskKind.COMM,
                flow_specs=list(flow_specs),
                deps=list(deps),
                resource=resource,
            )
        )

    def add_reconfig(
        self,
        task_id: str,
        duration_s: float,
        deps: Sequence[str] = (),
        on_complete: Optional[Callable[[], None]] = None,
    ) -> Task:
        return self.add(
            Task(
                task_id=task_id,
                kind=TaskKind.RECONFIG,
                duration_s=duration_s,
                deps=list(deps),
                on_complete=on_complete,
            )
        )

    def add_barrier(self, task_id: str, deps: Sequence[str]) -> Task:
        return self.add(Task(task_id=task_id, kind=TaskKind.BARRIER, deps=list(deps)))

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check the graph is a DAG (raises ``ValueError`` on cycles)."""
        state: Dict[str, int] = {}

        def visit(task_id: str, stack: List[str]) -> None:
            status = state.get(task_id, 0)
            if status == 1:
                cycle = " -> ".join(stack + [task_id])
                raise ValueError(f"dependency cycle detected: {cycle}")
            if status == 2:
                return
            state[task_id] = 1
            for dep in self._tasks[task_id].deps:
                visit(dep, stack + [task_id])
            state[task_id] = 2

        for task_id in self._tasks:
            visit(task_id, [])

    def topological_order(self) -> List[str]:
        self.validate()
        order: List[str] = []
        indegree = {tid: len(task.deps) for tid, task in self._tasks.items()}
        dependents: Dict[str, List[str]] = {tid: [] for tid in self._tasks}
        for tid, task in self._tasks.items():
            for dep in task.deps:
                dependents[dep].append(tid)
        ready = [tid for tid, deg in indegree.items() if deg == 0]
        while ready:
            tid = ready.pop()
            order.append(tid)
            for dependent in dependents[tid]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._tasks):
            raise ValueError("graph has a cycle")
        return order

    # ---------------------------------------------------------------- queries
    def critical_path_lower_bound(self) -> float:
        """Longest chain of fixed durations (ignores network time); a sanity
        lower bound used by tests."""
        order = self.topological_order()
        finish: Dict[str, float] = {}
        for tid in order:
            task = self._tasks[tid]
            start = max((finish[d] for d in task.deps), default=0.0)
            finish[tid] = start + task.duration_s
        return max(finish.values(), default=0.0)
