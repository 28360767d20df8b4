"""Spans around the public entry points of ``src/repro``, from outside.

A traced workload process calls :func:`install` after importing
``repro.sweep``.  It wraps, in place, the public calls of each layer that
``run.py`` reports on, so the program itself carries no instrumentation.
Pool workers forked afterwards inherit the wrappers; their aggregates come
back through :func:`collect_workers`.

Spans stay in memory, aggregated by (parent span, span name): call count,
total time and self time (the span minus the child spans it covers).  That
keeps which layer caused which at the cost of one dict entry per edge, not
one record per call.
"""

from __future__ import annotations

import functools
import os
import queue
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (parent, name) -> [calls, total_s, self_s]
_SPANS: Dict[Tuple[str, str], List[float]] = {}
#: counter name -> value
_COUNTS: Dict[str, float] = {}
#: Open spans: [name, start, time covered by children].
_STACK: List[list] = []
#: Pools started in this process (to collect worker aggregates from).
_POOLS: List[object] = []
#: Parent-side marks of the current ``run()`` call.
_RUN: Dict[str, float] = {}


def _count(name: str, amount: float = 1) -> None:
    _COUNTS[name] = _COUNTS.get(name, 0) + amount


def _open(name: str) -> list:
    frame = [name, time.perf_counter(), 0.0]
    _STACK.append(frame)
    return frame


def _close(frame: list) -> None:
    elapsed = time.perf_counter() - frame[1]
    _STACK.pop()
    parent = _STACK[-1] if _STACK else None
    if parent is not None:
        parent[2] += elapsed
    key = (parent[0] if parent is not None else "", frame[0])
    entry = _SPANS.get(key)
    if entry is None:
        entry = _SPANS[key] = [0, 0.0, 0.0]
    entry[0] += 1
    entry[1] += elapsed
    entry[2] += elapsed - frame[2]


def _spanned(name: str, func: Callable, after: Callable = None) -> Callable:
    """``func`` inside a span; ``after(args, kwargs, result)`` runs outside it."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = _open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            _close(frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _counted(name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        _count(name)
        return func(*args, **kwargs)

    return wrapper


def _replace_function(module, attr: str, wrapper_of: Callable) -> None:
    """Wrap a module-level function everywhere ``repro`` imported it by name."""
    original = getattr(module, attr)
    wrapped = wrapper_of(original)
    for name, loaded in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            loaded, attr, None
        ) is original:
            setattr(loaded, attr, wrapped)


def _replace_method(cls, attr: str, wrapper_of: Callable) -> None:
    setattr(cls, attr, wrapper_of(getattr(cls, attr)))


def _traced_iter_run_config(original: Callable) -> Callable:
    """Time the generator's first step (materialisation and DAG build up to
    the first flow batch) apart from its later steps (task bookkeeping)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        generator = original(*args, **kwargs)
        name = "core.runtime.materialise"
        sent = None
        while True:
            frame = _open(name)
            try:
                request = generator.send(sent)
            except StopIteration as stop:
                return stop.value
            finally:
                _close(frame)
            name = "sim.executor.bookkeeping"
            sent = yield request

    return wrapper


def _after_add_flows(args, kwargs, result) -> None:
    flows = args[1] if len(args) > 1 else kwargs["flows"]
    _count("sim.flows.flows_admitted", len(flows))


def _after_allocation(args, kwargs, allocation) -> None:
    _count("core.reconfigure.circuits", allocation.total_circuits())


def _after_get_template(args, kwargs, result) -> None:
    _count(f"sweep.template.{result[1]}")


def _after_events(args, kwargs, event) -> None:
    if event[0] == "ack":
        _count("sweep.pool.acks")


def _mark_dispatch(func: Callable) -> Callable:
    """First pool submit or template fetch of a ``run()`` ends its cache read."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if "entered" in _RUN and "dispatched" not in _RUN:
            _RUN["dispatched"] = time.perf_counter()
        return func(*args, **kwargs)

    return wrapper


def _traced_run(func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        _RUN.clear()
        _RUN["entered"] = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            _RUN.setdefault("dispatched", time.perf_counter())

    return wrapper


def _remember_pool(func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        if self not in _POOLS:
            _POOLS.append(self)
        return func(self, *args, **kwargs)

    return wrapper


def _forget() -> None:
    """Start a forked process (a pool worker) with empty aggregates."""
    _SPANS.clear()
    _COUNTS.clear()
    _STACK.clear()
    _POOLS.clear()
    _RUN.clear()


def install() -> None:
    """Wrap every traced entry point of the already-imported program."""
    import repro.sweep.runner as runner_mod
    from repro.core import reconfigure
    from repro.core.controller import RegionalTopologyController
    from repro.fabric import FatTreeFabric, MixNetFabric, RailOptimizedFabric, TopoOptFabric
    from repro.moe import trace
    from repro.moe.gate import GateSimulator
    from repro.sim import flows
    from repro.sim.dag import TaskGraph
    from repro.sweep import template
    from repro.sweep.pool import PersistentWorkerPool

    os.register_at_fork(after_in_child=_forget)

    def span(name, after=None):
        return lambda func: _spanned(name, func, after)

    _replace_function(trace, "generate_trace", span("moe.trace"))
    for method in ("__init__", "advance", "expert_loads", "rank_traffic_matrix"):
        _replace_method(GateSimulator, method, span("moe.gate"))
    for fabric in (FatTreeFabric, RailOptimizedFabric, TopoOptFabric, MixNetFabric):
        _replace_method(fabric, "build_region", span("fabric.region.build"))
    _replace_method(template.StructuralTemplate, "region", span("fabric.region.stamp"))
    _replace_function(
        reconfigure, "reconfigure_ocs", span("core.reconfigure", _after_allocation)
    )
    _replace_method(
        RegionalTopologyController, "plan_uniform",
        span("core.reconfigure", _after_allocation),
    )
    _replace_function(runner_mod, "iter_run_config", _traced_iter_run_config)
    _replace_method(TaskGraph, "add", lambda f: _counted("core.runtime.dag_tasks", f))
    _replace_method(flows.FluidNetwork, "add_flows", span("sim.flows.admit", _after_add_flows))
    _replace_method(
        flows.FluidNetwork, "add_flow",
        span("sim.flows.admit", lambda a, k, r: _count("sim.flows.flows_admitted")),
    )
    _replace_function(
        flows, "service_advance_requests",
        lambda f: _spanned("sim.flows.kernel", f),
    )
    _replace_function(
        template, "get_template",
        lambda f: _mark_dispatch(_spanned("sweep.template.get", f, _after_get_template)),
    )
    _replace_method(template.TemplateStore, "load", span("sweep.template.load"))
    _replace_method(template.TemplateStore, "save", span("sweep.template.save"))
    _replace_method(runner_mod.FoldedSweepRunner, "run", _traced_run)
    _replace_method(PersistentWorkerPool, "start", _remember_pool)
    _replace_method(PersistentWorkerPool, "submit", _mark_dispatch)
    _replace_method(PersistentWorkerPool, "events", span("sweep.pool.wait", _after_events))
    _replace_method(
        PersistentWorkerPool, "respawn",
        lambda f: _counted("sweep.pool.respawns", f),
    )


def snapshot() -> dict:
    """This process's aggregates, JSON-safe."""
    return {
        "spans": [
            {"parent": parent, "name": name, "calls": int(calls),
             "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in sorted(_SPANS.items())
        ],
        "counts": dict(sorted(_COUNTS.items())),
        "cache_read_s": _RUN.get("dispatched", 0.0) - _RUN.get("entered", 0.0),
    }


def collect_task(emit) -> None:
    """Pool task: send the worker's aggregates to the parent."""
    emit(snapshot())


def collect_workers(timeout_s: float = 30.0) -> List[dict]:
    """Aggregates of every live worker of the pools started here.

    Call after the measured ``run()``, with the parent's own aggregates
    already taken: the events consumed here pass through the wrappers.
    """
    gathered: List[dict] = []
    for pool in _POOLS:
        pending = {
            pool.submit(worker, collect_task, ())
            for worker in range(pool.workers)
            if pool.is_alive(worker)
        }
        deadline = time.monotonic() + timeout_s
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("pool workers did not return their spans")
            try:
                kind, _worker, task_id, payload = pool.events(timeout=remaining)
            except queue.Empty:
                continue
            if task_id in pending and kind == "ack":
                gathered.append(payload)
            elif task_id in pending:
                pending.discard(task_id)
    return gathered
