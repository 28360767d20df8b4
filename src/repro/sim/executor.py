"""Discrete-event executor: runs a task DAG over a fluid network.

The executor advances simulated time between two kinds of events —
fixed-duration task completions (compute, reconfiguration, barriers) and flow
completions in the fluid network — starting tasks as soon as all their
dependencies have finished.  Communication tasks inject one flow per
:class:`~repro.sim.dag.FlowSpec`; their completion time therefore reflects
whatever contention the fabric imposes at that moment, including circuits
installed by reconfiguration callbacks earlier in the run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.fabric.base import RegionNetwork
from repro.sim.dag import (
    AdmissionPlan,
    RouteKey,
    RouteKind,
    Task,
    TaskGraph,
    TaskKind,
)
from repro.sim.flows import (
    FlowAdvanceOutcome,
    FlowAdvanceRequest,
    FlowBatch,
    FluidNetwork,
    service_advance_requests,
)


@dataclass
class ExecutionResult:
    """Outcome of one executor run.

    ``events`` counts executor events — one per timed-event instant plus one
    per flow-completion instant — drawn down from the ``max_events`` budget.
    ``solve_rounds`` / ``rounds_replayed`` are kernel cost counters (see
    :class:`~repro.sim.flows.FlowAdvanceOutcome`); they stay 0 on the scalar
    oracle.
    """

    makespan: float
    task_start_times: Dict[str, float] = field(default_factory=dict)
    task_finish_times: Dict[str, float] = field(default_factory=dict)
    comm_bytes: float = 0.0
    reconfig_time_total: float = 0.0
    events: int = 0
    solve_rounds: int = 0
    rounds_replayed: int = 0

    def duration_of(self, task_id: str) -> float:
        return self.task_finish_times[task_id] - self.task_start_times[task_id]

    def finished_tasks(self) -> int:
        return len(self.task_finish_times)


class Executor:
    """Runs a :class:`TaskGraph` on a :class:`RegionNetwork`.

    Args:
        graph: The iteration DAG.
        region: The fabric region view providing links and routing.
    """

    def __init__(self, graph: TaskGraph, region: RegionNetwork) -> None:
        graph.validate()
        self.graph = graph
        self.region = region
        self.network = FluidNetwork(region)
        # (src, dst, route) -> the resolved path's incidence rows in the
        # network (FluidNetwork.path_rows), for every route resolved since
        # the last topology change.  EP routes follow the optical circuits;
        # EPS and intra paths are static for the lifetime of the region, so
        # _static_rows keeps those across topology changes.
        self._rows_cache: Dict[RouteKey, List[int]] = {}
        self._static_rows: Dict[RouteKey, List[int]] = {}

    # ------------------------------------------------------------------- run
    def run(self, max_events: int = 5_000_000) -> ExecutionResult:
        """Execute the DAG and return timing results: :meth:`iter_run`
        driven standalone, as a one-block folded batch.

        Raises:
            RuntimeError: If the simulation deadlocks (flows exist but cannot
                make progress and no timed event is pending) or exceeds
                ``max_events``; the message names the simulated time, the
                active flow count and the first unfinished tasks.
        """
        runner = self.iter_run(max_events)
        outcome: Optional[FlowAdvanceOutcome] = None
        while True:
            try:
                request = runner.send(outcome) if outcome is not None else next(runner)
            except StopIteration as stop:
                return stop.value
            outcome = service_advance_requests([request])[0]

    def iter_run(
        self, max_events: int = 5_000_000
    ) -> Generator[FlowAdvanceRequest, FlowAdvanceOutcome, ExecutionResult]:
        """The event loop, as a generator that delegates every span of
        consecutive flow events to its driver.

        Whenever flows are active, the generator yields a
        :class:`FlowAdvanceRequest` (budgeted at the next timed event) and
        expects the matching :class:`FlowAdvanceOutcome` via ``send()``.  A
        driver servicing many executors batches their requests through one
        ``waterfill_batch`` call (:func:`service_advance_requests`); :meth:`run`
        drives a single executor.  Returns the :class:`ExecutionResult` as the
        generator's value.  Raises as :meth:`run` does.
        """
        state = _RunState(self)
        tasks = state.tasks
        timed_events = state.timed_events
        done = state.done
        state.start_roots()

        events = 0
        solve_rounds = 0
        rounds_replayed = 0
        budget_error = f"exceeded the maximum event budget ({max_events})"
        while len(done) < len(tasks):
            if self.network.active_flow_count() == 0:
                if not timed_events:
                    raise state.deadlock_error()
                events += 1
                if events > max_events:
                    raise state.error(budget_error)
                state.now = max(state.now, timed_events[0][0])
                state.complete_due_timed_events()
                continue

            next_timed = timed_events[0][0] if timed_events else None
            outcome = yield FlowAdvanceRequest(
                self.network, state.now, next_timed, max_events - events
            )
            events += outcome.steps
            solve_rounds += outcome.solve_rounds
            rounds_replayed += outcome.rounds_replayed
            state.now = outcome.now
            state.complete_drained_groups()
            if outcome.reason == "group":
                continue
            if outcome.reason == "steps":
                raise state.error(budget_error)
            # "budget", "stall" or "idle": the next event is a timed one, or
            # nothing can ever progress.
            if not timed_events:
                raise state.deadlock_error()
            events += 1
            if events > max_events:
                raise state.error(budget_error)
            target_time = max(state.now, timed_events[0][0])
            if target_time > state.now:
                self.network.progress(target_time - state.now)
            state.now = target_time
            state.complete_due_timed_events()
            state.complete_drained_groups()

        state.result.makespan = state.now
        state.result.events = events
        state.result.solve_rounds = solve_rounds
        state.result.rounds_replayed = rounds_replayed
        return state.result

    # ----------------------------------------------------------------- routes
    def _resolve_routes(
        self, route_keys: Sequence[RouteKey], rows: List[Optional[List[int]]]
    ) -> None:
        """Fill the ``None`` entries of ``rows`` (one per route key) by
        resolving the route's path to incidence rows, and cache them."""
        region = self.region
        path_rows = self.network.path_rows
        cache = self._rows_cache
        ep_route = RouteKind.EP
        for index, route_key in enumerate(route_keys):
            if rows[index] is not None:
                continue
            src, dst, route = route_key
            if route is RouteKind.INTRA or src == dst:
                path = [region.intra_link(src)]
            elif route is ep_route:
                path = region.ep_path(src, dst)
            else:
                path = region.eps_path(src, dst)
            rows[index] = cache[route_key] = path_rows(path)
            if route is not ep_route:
                self._static_rows[route_key] = rows[index]

    def _topology_changed(self) -> None:
        """Link capacities or circuits may have changed: re-solve rates, and
        re-resolve EP routes (EPS and intra paths never change)."""
        self.network.mark_topology_changed()
        self._rows_cache = dict(self._static_rows)


class _RunState:
    """DAG bookkeeping of one :meth:`Executor.iter_run` — task readiness and
    the timed-event heap.
    Comm-task completion is driven by the network's drained-group order
    (each comm task's flows form one group), so no per-flow ownership maps
    are maintained."""

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.tasks = executor.graph.tasks
        self.remaining_deps: Dict[str, int] = {
            tid: len(t.deps) for tid, t in self.tasks.items()
        }
        self.dependents: Dict[str, List[str]] = {tid: [] for tid in self.tasks}
        for tid, task in self.tasks.items():
            for dep in task.deps:
                self.dependents[dep].append(tid)
        self.result = ExecutionResult(makespan=0.0)
        self.now = 0.0
        self.timed_events: List[Tuple[float, int, str]] = []  # (time, seq, task)
        self.seq = itertools.count()
        self.done: Set[str] = set()

    def error(self, what: str) -> RuntimeError:
        """A RuntimeError naming the simulated time, the active flow count
        and the first few unfinished tasks."""
        unfinished = [tid for tid in self.tasks if tid not in self.done]
        shown = ", ".join(unfinished[:3])
        if len(unfinished) > 3:
            shown += f", ... ({len(unfinished)} in all)"
        return RuntimeError(
            f"executor {what} at t={self.now!r} s with "
            f"{self.executor.network.active_flow_count()} active flows; "
            f"unfinished tasks: {shown}"
        )

    def deadlock_error(self) -> RuntimeError:
        if self.executor.network.active_flow_count() > 0:
            return self.error(
                "hit a simulation deadlock (active flows cannot make progress: "
                "a path is dark and no event will revive it)"
            )
        return self.error(
            "hit a simulation deadlock (tasks remain but no events are pending)"
        )

    def start_roots(self) -> None:
        for tid, count in list(self.remaining_deps.items()):
            if count == 0:
                self.start_task(tid)

    def start_task(self, task_id: str) -> None:
        executor = self.executor
        task = self.tasks[task_id]
        self.result.task_start_times[task_id] = self.now
        if task.on_start is not None:
            task.on_start()
        if task.kind is TaskKind.COMM:
            plan = task.admission
            if plan is None:
                plan = AdmissionPlan.from_specs(task.flow_specs)
            # A sequential left-to-right sum, like a per-flow loop (np.sum
            # is pairwise and would change the bits of comm_bytes).
            comm_bytes = self.result.comm_bytes
            for size_bytes in plan.sizes.tolist():
                comm_bytes += size_bytes
            self.result.comm_bytes = comm_bytes
            if len(plan):
                # One rows lookup per route key; a miss resolves the path.
                rows = list(map(executor._rows_cache.get, plan.route_keys))
                if None in rows:
                    executor._resolve_routes(plan.route_keys, rows)
                executor.network.add_flows(
                    FlowBatch(plan.sizes, plan.thresholds, plan.route_of, rows),
                    group=task_id,
                )
            else:
                # Nothing to transfer: completes instantly.
                heapq.heappush(self.timed_events, (self.now, next(self.seq), task_id))
        else:
            if task.kind is TaskKind.RECONFIG:
                self.result.reconfig_time_total += task.duration_s
            heapq.heappush(
                self.timed_events,
                (self.now + task.duration_s, next(self.seq), task_id),
            )

    def complete_task(self, task_id: str) -> None:
        task = self.tasks[task_id]
        self.done.add(task_id)
        self.result.task_finish_times[task_id] = self.now
        if task.on_complete is not None:
            task.on_complete()
            # A callback may have changed link capacities (e.g. circuits).
            self.executor._topology_changed()
        for dependent in self.dependents[task_id]:
            self.remaining_deps[dependent] -= 1
            if self.remaining_deps[dependent] == 0:
                self.start_task(dependent)

    def complete_due_timed_events(self) -> None:
        """Pop and complete every timed event due at (or just before) now."""
        finished_ids: List[str] = []
        while self.timed_events and self.timed_events[0][0] <= self.now + 1e-15:
            _, _, tid = heapq.heappop(self.timed_events)
            finished_ids.append(tid)
        for tid in finished_ids:
            self.complete_task(tid)

    def complete_drained_groups(self) -> None:
        """Complete comm tasks whose flow group drained, in drain order.

        The network appends a group the moment its last flow finishes, so
        drain order equals the old per-flow ownership bookkeeping's
        completion order — without two dict operations per finished flow.
        """
        for task_id in self.executor.network.consume_drained_groups():
            self.complete_task(task_id)
