"""Fluid (flow-level) network model with max–min fair bandwidth sharing.

This is the reproduction's substitute for the paper's htsim packet-level
simulator: every communication is a *flow* with a byte size and a directed
link path; at any instant the active flows share each link's capacity
max–min fairly (progressive water-filling).  The event-driven executor asks
the network for the time until the next flow completes and advances all flows
by that amount, which yields exact fluid-model completion times.

A :class:`FluidNetwork` owns its flows as one struct of arrays with a CSR
flow→link incidence (DESIGN.md §11); flows are admitted as array batches
(:class:`FlowBatch`) and retired by mask and group-count updates.
:class:`Flow` objects exist only as a debug adapter: made on demand by
:attr:`FluidNetwork.flows`, :meth:`FluidNetwork.advance` and
:attr:`FlowAdvanceOutcome.finished`, and accepted by ``add_flow(s)``.

Three interchangeable, *exact* rate solvers read the same CSR arrays
(see DESIGN.md §2):

* ``"scalar"`` — the original pure-Python reference, kept for differential
  testing (``tests/test_sim_flows_properties.py`` asserts every solver
  agrees with it to 1e-9 on randomised topologies).
* ``"vectorized"`` — below :data:`DENSE_ROUND_THRESHOLD` active flows the
  bottleneck sequence is driven by a lazily-invalidated share heap with
  exact-tie draining, above it by numpy water-filling rounds over the dense
  incidence matrix.
* ``"native"`` — a small compiled C kernel (:mod:`repro.sim._native`) when
  a compiler is available; silently falls back to ``"vectorized"``
  otherwise.

``"auto"`` (the default) resolves to ``"native"`` when the kernel is
available and ``"vectorized"`` otherwise.  Select per network with
``FluidNetwork(region, solver=...)``, per run with
``RuntimeOptions(fluid_solver=...)``, or process-wide via
:func:`set_default_solver` / the ``REPRO_FLUID_SOLVER`` environment variable.

Link capacities are cached per network and re-read on
:meth:`FluidNetwork.mark_topology_changed` (which all in-tree capacity
mutations already trigger, e.g. the executor after reconfiguration
callbacks).
"""

from __future__ import annotations

import bisect
import heapq
import warnings
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fabric.base import GBPS_TO_BYTES_PER_S, RegionNetwork
from repro.flags import read_flag
from repro.selection import ImplementationSelector

#: Accepted solver names (``"auto"`` resolves at construction time).
SOLVERS = ("auto", "native", "vectorized", "scalar")

#: Active-flow count at which the vectorized solver switches from heap-ordered
#: to dense-matrix water-filling rounds.
DENSE_ROUND_THRESHOLD = 512

#: Process-wide override for the native kernel's incremental warm-start mode
#: (``None`` defers to the ``REPRO_WATERFILL_WARM_START`` environment
#: variable, which defaults to enabled).  The mode is bit-identical to the
#: from-scratch solve — it carries each block's water-filling bookkeeping
#: across the solve → advance loop instead of rebuilding it per event — so
#: the switch exists for differential testing, not for result exploration.
_WARM_START_OVERRIDE: Optional[bool] = None


def warm_start_enabled() -> bool:
    """Whether ``waterfill_batch`` runs in incremental warm-start mode."""
    if _WARM_START_OVERRIDE is not None:
        return _WARM_START_OVERRIDE
    return read_flag("REPRO_WATERFILL_WARM_START") != "0"


def set_warm_start(enabled: Optional[bool]) -> None:
    """Override warm-start mode process-wide (``None`` resets to the env)."""
    global _WARM_START_OVERRIDE
    _WARM_START_OVERRIDE = enabled


#: Process-wide override for the native kernel's incremental freeze-level
#: replay mode (``None`` defers to ``REPRO_WATERFILL_INCREMENTAL``, default
#: enabled).  The mode carries each block's freeze structure across events
#: and replays only the rounds whose membership a retirement changed; the
#: replay re-applies the recorded prefix in its original operation order, so
#: results are bit-identical to a full solve (DESIGN.md §10).  Like the
#: warm-start switch it exists for differential testing, not exploration.
_INCREMENTAL_OVERRIDE: Optional[bool] = None


def incremental_enabled() -> bool:
    """Whether ``waterfill_batch`` runs in incremental freeze-replay mode."""
    if _INCREMENTAL_OVERRIDE is not None:
        return _INCREMENTAL_OVERRIDE
    return read_flag("REPRO_WATERFILL_INCREMENTAL") != "0"


def set_incremental(enabled: Optional[bool]) -> None:
    """Override incremental mode process-wide (``None`` resets to the env)."""
    global _INCREMENTAL_OVERRIDE
    _INCREMENTAL_OVERRIDE = enabled


def _resolve_solver_impl(solver: str) -> str:
    if solver in ("auto", "native"):
        from repro.sim._native import native_available

        return "native" if native_available() else "vectorized"
    return solver


_selector = ImplementationSelector(
    kind="solver",
    names=SOLVERS,
    env_var="REPRO_FLUID_SOLVER",
    resolver=_resolve_solver_impl,
)


def default_solver() -> str:
    """The solver new :class:`FluidNetwork` instances use when none is given."""
    return _selector.default()


def set_default_solver(solver: Optional[str]) -> None:
    """Override the process-wide default solver (``None`` resets to the env)."""
    _selector.set_default(solver)


def resolve_solver(solver: Optional[str]) -> str:
    """Resolve a requested solver name to a concrete implementation."""
    return _selector.resolve(solver)


@dataclass(slots=True)
class Flow:
    """A single data transfer over a fixed path.

    The debug adapter's form of a flow: :class:`FluidNetwork` stores flows
    as arrays, accepts ``Flow`` objects in :meth:`FluidNetwork.add_flows`
    and hands out fresh ``Flow`` views of its slots.

    Attributes:
        flow_id: Unique identifier.
        size_bytes: Total bytes to transfer.
        path: Directed link ids traversed, in order.
        remaining_bytes: Bytes still to transfer.
        rate: Current max–min fair rate in bytes/s (set by the network).
    """

    flow_id: str
    size_bytes: float
    path: List[str]
    remaining_bytes: float = field(init=False)
    rate: float = 0.0
    _finish_threshold: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("flow size must be non-negative")
        if not self.path:
            raise ValueError("flow path must contain at least one link")
        self.remaining_bytes = float(self.size_bytes)
        # Residue far below the flow's size (or below a millibyte) is
        # floating-point dust left over when several flows complete at
        # (mathematically) the same instant; treating it as finished prevents
        # the event loop from chasing ever-smaller time steps.
        self._finish_threshold = max(1e-3, 1e-9 * self.size_bytes)

    @property
    def finished(self) -> bool:
        return self.remaining_bytes <= self._finish_threshold

    @classmethod
    def make(cls, flow_id: str, size_bytes: float, path: List[str]) -> "Flow":
        """Construct without argument validation.

        For callers that create flows in bulk from already-validated specs
        (positive sizes, resolver-produced paths); semantically identical to
        the normal constructor.
        """
        flow = object.__new__(cls)
        flow.flow_id = flow_id
        flow.size_bytes = size_bytes
        flow.path = path
        flow.remaining_bytes = float(size_bytes)
        flow.rate = 0.0
        threshold = 1e-9 * size_bytes
        flow._finish_threshold = threshold if threshold > 1e-3 else 1e-3
        return flow


@dataclass(slots=True, eq=False)
class FlowBatch:
    """Flows admitted together, as arrays — the unit of
    :meth:`FluidNetwork.add_flows`.

    ``sizes`` and ``thresholds`` (the :class:`Flow` finish threshold) are
    float64 arrays with one entry per flow; ``route_of`` maps each flow to
    its route in ``rows``, which holds each route's incidence rows as given
    by :meth:`FluidNetwork.path_rows`.  Routes are numbered in order of
    first use, so a batch whose every flow has its own route has
    ``route_of == arange(len(batch))``.  ``ids`` names the flows for the
    debug adapter; without it flow ``i`` of a batch admitted under group
    ``g`` is called ``f"{g}/f{i}"``, a string made only when something asks
    for it.
    """

    sizes: np.ndarray
    thresholds: np.ndarray
    route_of: np.ndarray
    rows: Sequence[List[int]]
    ids: Optional[Sequence[str]] = None

    def __len__(self) -> int:
        return len(self.sizes)


_NO_SLOTS = np.zeros(0, dtype=np.int64)


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` if it holds ``size`` entries, else a copy of it with
    ``max(size, 64)`` entries."""
    if len(array) >= size:
        return array
    grown = np.zeros(max(size, 64), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class FluidNetwork:
    """Max–min fair fluid bandwidth sharing over a :class:`RegionNetwork`.

    The network owns its flows as one struct of arrays indexed by *slot*
    (DESIGN.md §11): remaining bytes, rate, finish threshold, group slot,
    active mask and admission number, plus the CSR incidence
    ``_ptr``/``_rows`` (slot ``s`` crosses rows ``_rows[_ptr[s]:_ptr[s+1]]``).
    Slots are handed out in admission order; a finished flow stays in its
    slot, masked inactive, until a compaction (which keeps the relative
    order of the survivors) or until the network empties and starts over.

    Args:
        region: The region whose links carry the flows.  Link capacities are
            re-read whenever :meth:`mark_topology_changed` signals a change,
            so topology reconfigurations (capacity changes, new optical
            circuits) made between events take effect immediately.
        solver: One of :data:`SOLVERS`; defaults to :func:`default_solver`.
            The concrete implementation in use is exposed as ``self.solver``.
    """

    def __init__(self, region: RegionNetwork, solver: Optional[str] = None) -> None:
        self.region = region
        self.solver = resolve_solver(solver)
        self._native_loaded = None
        self._pointers: Dict[str, tuple] = {}  # see _pointer()
        self._rates_dirty = True
        # Links: one incidence row per link, assigned in order of first use
        # and never reassigned (the kernel breaks round ties by row index).
        self._link_row: Dict[str, int] = {}
        self._link_ids: List[str] = []
        self._cap = np.zeros(0)
        self._capacity_dirty = True
        # id(path) -> (path, rows); see path_rows().
        self._rows_of_path: Dict[int, Tuple[List[str], List[int]]] = {}
        # Flows, one slot each.
        self._n = 0        # slots in use (live and retired)
        self._nnz = 0      # CSR entries in use
        self._live = 0     # active flows
        self._rem = np.zeros(0)
        self._rate = np.zeros(0)
        self._thr = np.zeros(0)
        self._grp = np.zeros(0, dtype=np.int32)
        self._active = np.zeros(0, dtype=np.uint8)
        self._seq = np.zeros(0, dtype=np.int64)
        self._ungrouped = False  # some slot since the restart has no group
        self._ptr = np.zeros(1, dtype=np.int32)
        self._rows = np.zeros(0, dtype=np.int32)
        # Admission records for the debug adapter: batch b holds admission
        # numbers [_batch_starts[b], _batch_starts[b] + len(batch)).
        self._batches: List[Tuple[FlowBatch, object]] = []
        self._batch_starts: List[int] = []
        self._next_seq = 0
        # Live flow ids, built by the adapter's duplicate check on first use
        # and dropped (None) whenever a flow retires or an id-less batch
        # arrives.
        self._live_ids: Optional[set] = None
        # Bumped whenever slots move (compaction, restart when empty), which
        # invalidates slot numbers held by earlier outcomes.
        self._epoch = 0
        # Groups (the executor's comm tasks): slot -> key and flows left.
        # Drained groups accumulate in the order their last flow finished
        # until consume_drained_groups().
        self._grp_keys: List[object] = []
        self._grp_left = np.zeros(0, dtype=np.int32)
        self._slot_of: Dict[object, int] = {}
        self._drained: List[object] = []

    # ------------------------------------------------------------------ links
    def _row_for(self, link_id: str) -> int:
        row = self._link_row.get(link_id)
        if row is None:
            row = self._link_row[link_id] = len(self._link_ids)
            self._link_ids.append(link_id)
            self._capacity_dirty = True
        return row

    def path_rows(self, path: List[str]) -> List[int]:
        """Incidence rows of ``path`` (read-only), validated the first time
        the path is seen — a path that validated once stays valid, because
        rows are never reassigned.  Cached by the identity of ``path``: the
        executor resolves one path list per route and reuses it."""
        rows_of_path = self._rows_of_path
        entry = rows_of_path.get(id(path))
        if entry is not None:
            return entry[1]
        if not path:
            raise ValueError("flow path must contain at least one link")
        links = self.region.links
        for link_id in path:
            if link_id not in links:
                raise KeyError(f"path {path!r} uses unknown link {link_id!r}")
        rows = [self._row_for(link_id) for link_id in path]
        # The entry pins the path, so its id cannot be recycled.
        rows_of_path[id(path)] = (path, rows)
        return rows

    def _refresh_capacities(self) -> None:
        links = self.region.links
        capacities = []
        for link_id in self._link_ids:
            # A link can vanish from the region (e.g. an optical circuit torn
            # down by a reconfiguration); no active flow references it then,
            # so it only needs a capacity that keeps it off the bottleneck
            # scan.
            link = links.get(link_id)
            capacity = max(0.0, link.capacity_gbps) if link is not None else 0.0
            capacities.append(capacity * GBPS_TO_BYTES_PER_S)
        self._cap = np.array(capacities, dtype=np.float64)
        self._capacity_dirty = False

    def mark_topology_changed(self) -> None:
        """Signal that link capacities changed (forces a rate recomputation)."""
        self._rates_dirty = True
        self._capacity_dirty = True

    # -------------------------------------------------------------- admission
    def active_flow_count(self) -> int:
        return self._live

    def add_flow(self, flow: Flow, group: Optional[object] = None) -> None:
        self.add_flows([flow], group=group)

    def add_flows(self, flows, group: Optional[object] = None) -> None:
        """Admit a batch of flows, optionally as (part of) flow group ``group``.

        ``flows`` is a :class:`FlowBatch` — the executor's form, admitted
        with array copies and one rows lookup per path — or a sequence of
        :class:`Flow` objects (the debug adapter), which is converted to
        one.  Flow order is admission order: the kernel breaks exact
        completion ties by it.
        """
        remaining = None
        if isinstance(flows, FlowBatch):
            batch = flows
            if batch.ids is None and group is None:
                raise ValueError("a FlowBatch without ids needs a group")
        else:
            flows = list(flows)
            batch = FlowBatch(
                sizes=np.array([flow.size_bytes for flow in flows], dtype=np.float64),
                thresholds=np.array(
                    [flow._finish_threshold for flow in flows], dtype=np.float64
                ),
                route_of=np.arange(len(flows), dtype=np.int32),
                rows=[self.path_rows(flow.path) for flow in flows],
                ids=[flow.flow_id for flow in flows],
            )
            remaining = [flow.remaining_bytes for flow in flows]
        count = len(batch)
        if not count:
            return
        if batch.ids is None:
            self._live_ids = None
        else:
            self._claim_ids(batch.ids)
        if not self._live:
            self._restart()
        n0, nnz0 = self._n, self._nnz
        n1 = n0 + count
        flow_rows = batch.rows
        if len(flow_rows) != count:
            flow_rows = [flow_rows[route] for route in batch.route_of.tolist()]
        bounds = list(accumulate(map(len, flow_rows), initial=nnz0))
        nnz1 = bounds[-1]
        if n1 > len(self._rem) or nnz1 > len(self._rows):
            self._reserve(n1, nnz1)
        self._ptr[n0 : n1 + 1] = bounds
        self._rows[nnz0:nnz1] = np.fromiter(
            chain.from_iterable(flow_rows), np.int32, nnz1 - nnz0
        )
        self._rem[n0:n1] = batch.sizes if remaining is None else remaining
        self._rate[n0:n1] = 0.0
        self._thr[n0:n1] = batch.thresholds
        self._active[n0:n1] = 1
        self._seq[n0:n1] = np.arange(self._next_seq, self._next_seq + count)
        if group is None:
            self._grp[n0:n1] = -1
            self._ungrouped = True
        else:
            slot = self._slot_of.get(group)
            if slot is None:
                slot = self._slot_of[group] = len(self._grp_keys)
                self._grp_keys.append(group)
                if slot == len(self._grp_left):
                    self._grp_left = _grown(self._grp_left, 2 * slot + 1)
                self._grp_left[slot] = 0
            self._grp_left[slot] += count
            self._grp[n0:n1] = slot
        self._batches.append((batch, group))
        self._batch_starts.append(self._next_seq)
        self._next_seq += count
        self._n, self._nnz = n1, nnz1
        self._live += count
        self._rates_dirty = True

    def _reserve(self, num_flows: int, nnz: int) -> None:
        """Grow the slot arrays (``_ptr`` keeps one entry more) and the CSR
        rows geometrically, keeping their contents."""
        if num_flows > len(self._rem):
            slots = max(num_flows, 2 * len(self._rem), 64)
            for name in ("_rem", "_rate", "_thr", "_grp", "_active", "_seq"):
                setattr(self, name, _grown(getattr(self, name), slots))
            self._ptr = _grown(self._ptr, slots + 1)
        if nnz > len(self._rows):
            self._rows = _grown(self._rows, max(nnz, 2 * len(self._rows)))

    def _restart(self) -> None:
        """Reuse the slots from zero once every flow has finished (the
        dominant pattern: a task's batch lands on an empty network)."""
        self._n = self._nnz = 0
        self._ungrouped = False
        self._batches.clear()
        self._batch_starts.clear()
        self._next_seq = 0
        self._grp_keys.clear()  # every group drained, so _slot_of is empty
        self._epoch += 1

    def _compact(self) -> None:
        """Drop retired slots, keeping the survivors' relative order, and
        drop drained group slots."""
        n = self._n
        active = self._active[:n].view(bool)
        keep = np.flatnonzero(active)
        lengths = np.diff(self._ptr[: n + 1])
        rows = self._rows[: self._nnz][np.repeat(active, lengths)]
        live = len(keep)
        for name in ("_rem", "_rate", "_thr", "_grp", "_seq"):
            array = getattr(self, name)
            array[:live] = array[keep]
        self._active[:live] = 1
        np.cumsum(lengths[keep], dtype=np.int32, out=self._ptr[1 : live + 1])
        self._rows[: len(rows)] = rows
        self._n, self._nnz = live, len(rows)
        left = self._grp_left[: len(self._grp_keys)]
        kept = np.flatnonzero(left > 0)
        if len(kept) < len(left):
            remap = np.full(len(left), -1, dtype=np.int32)
            remap[kept] = np.arange(len(kept), dtype=np.int32)
            grp = self._grp[:live]
            np.copyto(grp, remap[grp], where=grp >= 0)
            self._grp_keys = [self._grp_keys[slot] for slot in kept.tolist()]
            self._grp_left[: len(kept)] = left[kept]
            self._slot_of = {key: slot for slot, key in enumerate(self._grp_keys)}
        self._epoch += 1

    def _active_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(slots, ptr, rows)``: the CSR of the active flows alone, in slot
        order, rebuilt for each one-shot solve."""
        n = self._n
        ptr = self._ptr[: n + 1]
        if self._live == n:
            return np.arange(n), ptr, self._rows[: self._nnz]
        active = self._active[:n].view(bool)
        slots = np.flatnonzero(active)
        lengths = np.diff(ptr)
        compact_ptr = np.zeros(len(slots) + 1, dtype=np.int32)
        np.cumsum(lengths[slots], dtype=np.int32, out=compact_ptr[1:])
        return slots, compact_ptr, self._rows[: self._nnz][np.repeat(active, lengths)]

    # ------------------------------------------------------------ retirement
    def _settle_groups(self, left_after: np.ndarray, finished: np.ndarray) -> None:
        """Install the group counts left after ``finished`` (slots, in
        retirement order) retired, and report the groups that drained, in
        the order their last flow retired."""
        left = self._grp_left[: len(self._grp_keys)]
        before = left.tolist()
        left[:] = left_after
        drained = [
            slot for slot, count in enumerate(left.tolist())
            if count == 0 and before[slot] > 0
        ]
        if len(drained) > 1:
            groups = self._grp[finished].tolist()
            last = {group: position for position, group in enumerate(groups)}
            drained.sort(key=last.__getitem__)
        keys = self._grp_keys
        for slot in drained:
            key = keys[slot]
            del self._slot_of[key]
            self._drained.append(key)

    def _retire(self, finished: np.ndarray) -> None:
        """Mark ``finished`` slots (in retirement order, typically one or
        two per event) inactive and count them off their groups."""
        self._active[finished] = 0
        self._live -= len(finished)
        self._live_ids = None
        left = self._grp_left
        for slot in self._grp[finished].tolist():
            if slot >= 0:
                left[slot] -= 1
                if not left[slot]:
                    key = self._grp_keys[slot]
                    del self._slot_of[key]
                    self._drained.append(key)

    def consume_drained_groups(self) -> List[object]:
        """Groups whose last flow finished since the previous call, in drain
        order.  The executor completes the owning comm tasks in this order."""
        drained, self._drained = self._drained, []
        return drained

    # ---------------------------------------------------------- debug adapter
    def _origins(self, slots: np.ndarray) -> List[Tuple[FlowBatch, str, int]]:
        """``(batch, flow id, index in batch)`` of each slot in ``slots``."""
        origins = []
        starts = self._batch_starts
        for seq in self._seq[slots].tolist():
            index = bisect.bisect_right(starts, seq) - 1
            batch, group = self._batches[index]
            offset = seq - starts[index]
            flow_id = batch.ids[offset] if batch.ids is not None else f"{group}/f{offset}"
            origins.append((batch, flow_id, offset))
        return origins

    def _claim_ids(self, flow_ids: Sequence[str]) -> None:
        """Reject ids already live (or repeated) before the adapter admits
        them; the live-id set is built on first use and kept until a flow
        retires or an id-less batch arrives."""
        live = self._live_ids
        if live is None:
            slots = np.flatnonzero(self._active[: self._n])
            live = {flow_id for _, flow_id, _ in self._origins(slots)}
        for flow_id in flow_ids:
            if flow_id in live:
                raise ValueError(f"duplicate flow id {flow_id!r}")
            live.add(flow_id)
        self._live_ids = live

    def _views(self, slots: np.ndarray, epoch: Optional[int] = None) -> List[Flow]:
        """Fresh :class:`Flow` objects mirroring ``slots``."""
        if epoch is not None and epoch != self._epoch:
            raise RuntimeError(
                "finished-flow views are stale: the network has compacted or "
                "restarted its slots since; read outcome.finished first"
            )
        link_ids = self._link_ids
        views = []
        for (batch, flow_id, offset), remaining, rate in zip(
            self._origins(slots),
            self._rem[slots].tolist(),
            self._rate[slots].tolist(),
        ):
            rows = batch.rows[int(batch.route_of[offset])]
            flow = Flow.make(
                flow_id, float(batch.sizes[offset]), [link_ids[row] for row in rows]
            )
            flow.remaining_bytes = remaining
            flow.rate = rate
            views.append(flow)
        return views

    @property
    def flows(self) -> Dict[str, Flow]:
        """Active flows by id, in admission order (fresh views)."""
        views = self._views(np.flatnonzero(self._active[: self._n]))
        return {flow.flow_id: flow for flow in views}

    # ------------------------------------------------------------ rate solver
    def compute_rates(self) -> None:
        """Max–min fair allocation of every active flow's rate."""
        if self._capacity_dirty:
            self._refresh_capacities()
        if self._live:
            if self._native_ready():
                self._solve_native()
            else:
                self._solve_python()
        self._rates_dirty = False

    def _solve_python(self) -> None:
        slots, ptr, rows = self._active_csr()
        if self.solver == "scalar":
            rates = _waterfill_scalar(ptr, rows, self._cap)
        elif len(slots) >= DENSE_ROUND_THRESHOLD:
            rates = _waterfill_dense(ptr, rows, self._cap)
        else:
            rates = _waterfill_heap(ptr, rows, self._cap)
        self._rate[slots] = rates

    def _native_ready(self) -> bool:
        """Lazily load the C kernel; degrade to ``vectorized`` if unavailable."""
        if self.solver != "native":
            return False
        if self._native_loaded is None:
            from repro.sim._native import native_lib

            self._native_loaded = native_lib()
            if self._native_loaded is None:
                # Compiler/kernel unavailable after all; degrade gracefully.
                self.solver = "vectorized"
                return False
        return True

    def _solve_native(self) -> None:
        """One-shot C solve over the active slots, in place."""
        lib, ffi = self._native_loaded
        status = lib.waterfill(
            self._n,
            len(self._link_ids),
            self._pointer(ffi, "_ptr", "const int *"),
            self._pointer(ffi, "_rows", "const int *"),
            self._pointer(ffi, "_cap", "const double *"),
            self._pointer(ffi, "_active", "const unsigned char *"),
            self._pointer(ffi, "_rate", "double *"),
        )
        if status != 0:
            # Scratch-allocation failure (WF_OOM): the rates are zeroed, not
            # valid.  Demote to the Python solver — the allocation would just
            # fail again — and solve with it.
            warnings.warn(
                "native fluid kernel (waterfill) could not allocate scratch "
                "memory; falling back to the Python rate solver",
                RuntimeWarning,
                stacklevel=3,
            )
            self.solver = "vectorized"
            self._solve_python()

    def _pointer(self, ffi, name: str, ctype: str):
        """A cffi pointer to array attribute ``name``, cached until the
        attribute is replaced (growth, capacity refresh)."""
        array = getattr(self, name)
        cached = self._pointers.get(name)
        if cached is None or cached[0] is not array:
            cached = self._pointers[name] = (array, ffi.cast(ctype, ffi.from_buffer(array)))
        return cached[1]

    # ------------------------------------------------------------ progression
    def time_to_next_completion(self) -> Optional[float]:
        """Time until the first active flow finishes, or ``None`` if no flows
        (or none can make progress: all their paths are dark)."""
        if self._rates_dirty:
            self.compute_rates()
        if not self._live:
            return None
        n = self._n
        rate = self._rate[:n]
        moving = (rate > 0) & self._active[:n].view(bool)
        if not moving.any():
            return None
        return float((self._rem[:n][moving] / rate[moving]).min())

    def _progress(self, dt: float) -> np.ndarray:
        """Advance every active flow by ``dt`` seconds and retire the ones
        that finished; returns their slots in slot order."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if self._rates_dirty:
            self.compute_rates()
        if not self._live:
            return _NO_SLOTS
        n = self._n
        active = self._active[:n].view(bool)
        rate = self._rate[:n]
        remaining = self._rem[:n]
        moving = ((rate > 0) & active).nonzero()[0]
        if dt > 0:
            # Clamped at zero, like the kernel's `v > 0.0 ? v : 0.0`.
            remaining[moving] = np.fmax(remaining[moving] - rate[moving] * dt, 0.0)
        else:
            # inf * 0 is NaN, which that clamp turns into zero.
            remaining[moving[np.isinf(rate[moving])]] = 0.0
        finished = ((remaining <= self._thr[:n]) & active).nonzero()[0]
        if len(finished):
            self._retire(finished)
            self._rates_dirty = True
        return finished

    def progress(self, dt: float) -> int:
        """Advance all flows by ``dt`` seconds; return how many finished."""
        return len(self._progress(dt))

    def advance(self, dt: float) -> List[Flow]:
        """Advance all flows by ``dt`` seconds; return the flows that finished
        (debug adapter over :meth:`progress`)."""
        return self._views(self._progress(dt))

    def advance_through(
        self,
        now: float,
        budget: Optional[float] = None,
        max_steps: int = 5_000_000,
    ) -> "FlowAdvanceOutcome":
        """Run the solve → next-completion → advance loop to the next stop.

        Convenience wrapper over :func:`service_advance_requests` for a single
        network; see :class:`FlowAdvanceRequest` for the stop conditions.
        """
        return service_advance_requests(
            [FlowAdvanceRequest(self, now, budget, max_steps)]
        )[0]


# -------------------------------------------------------- python water-filling
def _flow_rows(ptr: np.ndarray, rows: np.ndarray) -> List[List[int]]:
    bounds = ptr.tolist()
    row_list = rows.tolist()
    return [row_list[bounds[f] : bounds[f + 1]] for f in range(len(bounds) - 1)]


def _waterfill_scalar(ptr: np.ndarray, rows: np.ndarray, caps: np.ndarray) -> List[float]:
    """Reference implementation: pure-Python progressive water-filling.

    Links are scanned in order of first use by the flows (flow order, then
    path order) and the first minimal share wins.
    """
    flow_rows = _flow_rows(ptr, rows)
    capacity = caps.tolist()
    rates = [0.0] * len(flow_rows)
    residual: Dict[int, float] = {}
    link_flows: Dict[int, List[int]] = {}
    for flow, path in enumerate(flow_rows):
        for row in path:
            if row not in residual:
                residual[row] = capacity[row]
                link_flows[row] = []
            link_flows[row].append(flow)
    unfrozen = set(range(len(flow_rows)))
    active_on_link = {row: len(members) for row, members in link_flows.items()}

    while unfrozen:
        # Find the most constraining link among links carrying unfrozen flows.
        bottleneck_share = None
        bottleneck_link = None
        for row, count in active_on_link.items():
            if count <= 0:
                continue
            share = residual[row] / count
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = row
        if bottleneck_link is None:
            # No remaining constraints: unconstrained flows get "infinite"
            # rate; in practice every path has at least one finite link.
            for flow in unfrozen:
                rates[flow] = float("inf")
            break
        share = max(0.0, bottleneck_share or 0.0)
        # Freeze every unfrozen flow crossing the bottleneck at this rate.
        for flow in link_flows[bottleneck_link]:
            if flow not in unfrozen:
                continue
            rates[flow] = share
            unfrozen.discard(flow)
            for row in flow_rows[flow]:
                residual[row] = max(0.0, residual[row] - share)
                active_on_link[row] -= 1
    return rates


def _waterfill_heap(ptr: np.ndarray, rows: np.ndarray, caps: np.ndarray) -> List[float]:
    """Progressive water-filling with a heap-ordered bottleneck sequence.

    Each round pops the link with the smallest residual fair share,
    freezes every unfrozen flow crossing it at that share, drains any
    *exactly* tied links that the freeze left untouched (their shares are
    provably still minimal), and finally pushes one refreshed entry per
    touched link.  Stale heap entries are invalidated lazily via per-link
    version counters.  Initial entries share version 0, so first-round
    ties break on row index.
    """
    flow_rows = _flow_rows(ptr, rows)
    num_rows = len(caps)
    row_flows: List[List[int]] = [[] for _ in range(num_rows)]
    for flow, path in enumerate(flow_rows):
        for row in path:
            row_flows[row].append(flow)
    counts = [len(members) for members in row_flows]
    residual = caps.tolist()
    rates = [0.0] * len(flow_rows)
    version = [0] * num_rows
    heap = [
        (residual[row] / counts[row], 0, row)
        for row in range(num_rows)
        if counts[row] > 0
    ]
    heapq.heapify(heap)
    frozen = bytearray(len(flow_rows))
    unfrozen = len(flow_rows)
    touched: List[int] = []
    touched_flag = bytearray(num_rows)
    pop = heapq.heappop
    push = heapq.heappush

    def freeze_link(row: int, share: float) -> int:
        newly = 0
        for flow in row_flows[row]:
            if frozen[flow]:
                continue
            rates[flow] = share
            frozen[flow] = 1
            newly += 1
            for touched_row in flow_rows[flow]:
                value = residual[touched_row] - share
                residual[touched_row] = value if value > 0.0 else 0.0
                counts[touched_row] -= 1
                version[touched_row] += 1
                if not touched_flag[touched_row]:
                    touched_flag[touched_row] = 1
                    touched.append(touched_row)
        return newly

    while unfrozen:
        while heap:
            share, entry_version, row = pop(heap)
            if entry_version == version[row] and counts[row] > 0:
                break
        else:
            # No remaining constraints: unconstrained flows get "infinite"
            # rate; in practice every path has at least one finite link.
            for flow, is_frozen in enumerate(frozen):
                if not is_frozen:
                    rates[flow] = float("inf")
            break
        if share < 0.0:
            share = 0.0
        unfrozen -= freeze_link(row, share)
        # Exact ties whose links the freeze did not touch still hold the
        # minimal share (shares of touched links can only grow), so they
        # can be drained in the same round; touched links' entries are
        # stale by version and skipped.
        while heap and heap[0][0] == share:
            _, entry_version, tied_row = pop(heap)
            if entry_version == version[tied_row] and counts[tied_row] > 0:
                unfrozen -= freeze_link(tied_row, share)
        for touched_row in touched:
            touched_flag[touched_row] = 0
            if counts[touched_row] > 0:
                push(
                    heap,
                    (
                        residual[touched_row] / counts[touched_row],
                        version[touched_row],
                        touched_row,
                    ),
                )
        touched.clear()
    return rates


def _waterfill_dense(ptr: np.ndarray, rows: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Progressive water-filling as numpy rounds over the dense incidence
    matrix — the profitable formulation once enough flows are active."""
    num_flows = len(ptr) - 1
    incidence = np.zeros((len(caps), num_flows))
    np.add.at(incidence, (rows, np.repeat(np.arange(num_flows), np.diff(ptr))), 1.0)
    residual = caps.copy()
    rates = np.zeros(num_flows)
    unfrozen = np.ones(num_flows, dtype=bool)
    counts = incidence.sum(axis=1)
    while unfrozen.any():
        carrying = counts > 0.0
        if not carrying.any():
            rates[unfrozen] = np.inf
            break
        shares = np.full(len(caps), np.inf)
        np.divide(residual, counts, out=shares, where=carrying)
        bottleneck = int(np.argmin(shares))
        share = max(0.0, float(shares[bottleneck]))
        freeze = unfrozen & (incidence[bottleneck] > 0.0)
        rates[freeze] = share
        unfrozen &= ~freeze
        frozen_counts = incidence[:, np.nonzero(freeze)[0]].sum(axis=1)
        residual -= share * frozen_counts
        np.maximum(residual, 0.0, out=residual)
        counts -= frozen_counts
    return rates


# --------------------------------------------------------------- folded advance
@dataclass
class FlowAdvanceRequest:
    """One network's slice of a folded advance (see DESIGN.md §6).

    Asks for the network to be advanced from ``now`` through consecutive flow
    completions until one of the stop conditions of :class:`FlowAdvanceOutcome`
    is reached.  ``budget`` is the absolute time of the next timed event
    (``None`` when none is pending): the loop stops *before* consuming a
    completion at or past it, because timed events win ties in the executor.
    """

    network: FluidNetwork
    now: float
    budget: Optional[float] = None
    max_steps: int = 5_000_000


@dataclass
class FlowAdvanceOutcome:
    """What happened to one network during a folded advance.

    Attributes:
        now: Simulated time after the last consumed completion.
        next_flow: Absolute time of the first unconsumed completion when the
            stop reason is ``"budget"``; ``None`` otherwise.
        steps: Flow-completion events consumed.
        reason: ``"budget"`` (next completion at/after the budget),
            ``"group"`` (a flow group drained — its owner needs Python),
            ``"stall"`` (flows exist but none can progress),
            ``"steps"`` (``max_steps`` exhausted), or ``"idle"`` (no flows).
        solve_rounds: Water-filling rounds the native kernel executed for
            this network (0 on the Python paths — a solver-cost counter, not
            part of the simulation result).
        rounds_replayed: Rounds the incremental mode inherited from the
            carried freeze record instead of re-executing (0 unless
            ``incremental_enabled()`` and the native kernel ran).
        network, finished_slots, epoch: Where the finished flows live; see
            :attr:`finished`.
    """

    now: float
    next_flow: Optional[float]
    steps: int
    reason: str
    solve_rounds: int = 0
    rounds_replayed: int = 0
    network: Optional[FluidNetwork] = field(default=None, repr=False)
    finished_slots: Optional[np.ndarray] = field(default=None, repr=False)
    epoch: int = 0

    @property
    def finished(self) -> List[Flow]:
        """Flows that completed, in completion (then flow) order, as fresh
        :class:`Flow` views (debug adapter).  Read it before the network
        admits into an empty slot table or compacts."""
        if self.finished_slots is None or not len(self.finished_slots):
            return []
        return self.network._views(self.finished_slots, self.epoch)


#: waterfill_batch stop codes, in C enum order (WF_STOP_*).
_STOP_REASONS = ("budget", "group", "stall", "steps")


def service_advance_requests(
    requests: Sequence[FlowAdvanceRequest],
) -> List[FlowAdvanceOutcome]:
    """Advance many fluid networks at once — the folded execution core.

    Networks backed by the native solver are stacked into one block-diagonal
    CSR and advanced by a single ``waterfill_batch`` call (no Python between
    their flow events); the rest run an equivalent per-network Python loop.
    Blocks are independent (no shared links), so batch results are
    bit-identical to advancing each network alone.
    """
    outcomes: List[Optional[FlowAdvanceOutcome]] = [None] * len(requests)
    native_indices: List[int] = []
    for index, request in enumerate(requests):
        network = request.network
        if not network._live:
            outcomes[index] = FlowAdvanceOutcome(request.now, None, 0, "idle")
        elif network._native_ready():
            native_indices.append(index)
        else:
            outcomes[index] = _advance_python(request)
    if native_indices:
        batch = _advance_native_batch([requests[i] for i in native_indices])
        if batch is None:
            # Kernel scratch OOM (already warned): no flow moved, so the
            # Python loop can service each request from the same state.
            batch = [_advance_python(requests[i]) for i in native_indices]
        for index, outcome in zip(native_indices, batch):
            outcomes[index] = outcome
    return outcomes  # type: ignore[return-value]


def _advance_python(request: FlowAdvanceRequest) -> FlowAdvanceOutcome:
    """Reference implementation of one folded advance, via the public
    per-event primitives (so it works with every solver)."""
    network = request.network
    now = request.now
    finished: List[np.ndarray] = []
    steps = 0

    def outcome(next_flow: Optional[float], reason: str) -> FlowAdvanceOutcome:
        slots = np.concatenate(finished) if finished else _NO_SLOTS
        return FlowAdvanceOutcome(
            now, next_flow, steps, reason,
            network=network, finished_slots=slots, epoch=network._epoch,
        )

    while True:
        dt = network.time_to_next_completion()
        if dt is None:
            return outcome(None, "stall" if network._live else "idle")
        at = now + dt
        if request.budget is not None and request.budget <= at:
            return outcome(at, "budget")
        if steps >= request.max_steps:
            return outcome(None, "steps")
        drained_before = len(network._drained)
        finished.append(network._progress(dt))
        now = at
        steps += 1
        if len(network._drained) > drained_before:
            return outcome(None, "group")


class _BatchScratch:
    """Persistent assembly buffers for :func:`_advance_native_batch`.

    A folded sweep calls the batch advance hundreds of times with
    near-constant sizes; rebuilding the stacked CSR out of per-network
    ``np.concatenate`` temporaries dominated the Python side of the call.
    Buffers grow geometrically, never shrink, and are filled in place via
    slice views each call.  Like the fluid networks themselves the scratch is
    single-threaded per process (pool workers are separate processes), and
    :func:`_advance_native_batch` is not reentrant anyway — the kernel call
    consumes the buffers before returning.
    """

    __slots__ = ("_arrays", "_ptrs")

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._ptrs: Dict[str, object] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` contiguous view of the named buffer (uninitialised)."""
        array = self._arrays.get(name)
        if array is None or len(array) < size:
            capacity = max(size, 64)
            if array is not None:
                capacity = max(capacity, 2 * len(array))
            array = np.empty(capacity, dtype=dtype)
            self._arrays[name] = array
            self._ptrs.pop(name, None)  # pointed into the replaced array
        return array[:size]

    def ptr(self, ffi, name: str, ctype: str):
        """Cached cffi pointer to the named buffer's base.

        Buffers are stable between reallocations, so the (measurably
        non-free) ``ffi.from_buffer``/``ffi.cast`` pair runs once per growth
        instead of once per kernel call; :meth:`get` drops the cached
        pointer whenever it replaces the backing array.  The cdata keeps the
        array alive, never the reverse.
        """
        pointer = self._ptrs.get(name)
        if pointer is None:
            pointer = ffi.cast(ctype, ffi.from_buffer(self._arrays[name]))
            self._ptrs[name] = pointer
        return pointer


_BATCH_SCRATCH = _BatchScratch()


def _advance_native_batch(
    requests: Sequence[FlowAdvanceRequest],
) -> Optional[List[FlowAdvanceOutcome]]:
    """Advance all requests with one ``waterfill_batch`` call.

    Each block's flow arrays are copied into the stacked batch buffers and
    the post-advance remaining bytes, rates and active mask copied back;
    retirement is then a mask and group-count update per block, with no
    per-flow Python.  Returns ``None`` (after warning) if the kernel reports
    scratch OOM; no flow has moved in that case.
    """
    lib, ffi = requests[0].network._native_loaded
    num_blocks = len(requests)
    scratch = _BATCH_SCRATCH
    block_flows = scratch.get("block_flows", num_blocks + 1, np.int32)
    block_rows = scratch.get("block_rows", num_blocks + 1, np.int32)
    block_flows[0] = 0
    block_rows[0] = 0
    # First pass: compact sparse blocks and size the batch.
    flow_base = row_base = nnz_base = group_total = 0
    for index, request in enumerate(requests):
        network = request.network
        if network._capacity_dirty:
            network._refresh_capacities()
        if 2 * network._live < network._n:
            network._compact()
        flow_base += network._n
        row_base += len(network._link_ids)
        nnz_base += network._nnz
        group_total += len(network._grp_keys)
        block_flows[index + 1] = flow_base
        block_rows[index + 1] = row_base

    total_flows, total_rows, total_nnz = flow_base, row_base, nnz_base
    flow_ptr = scratch.get("flow_ptr", total_flows + 1, np.int32)
    flow_rows = scratch.get("flow_rows", total_nnz, np.int32)
    caps = scratch.get("caps", total_rows, np.float64)
    remaining = scratch.get("remaining", total_flows, np.float64)
    threshold = scratch.get("threshold", total_flows, np.float64)
    group_of = scratch.get("group_of", total_flows, np.int32)
    active = scratch.get("active", total_flows, np.uint8)
    rates = scratch.get("rates", total_flows, np.float64)
    finished = scratch.get("finished", total_flows, np.int32)
    group_left = scratch.get("group_left", max(group_total, 1), np.int32)

    # Second pass: stack each block into the scratch slices, offsetting row,
    # nnz and group indices into batch coordinates.
    flow_ptr[0] = 0
    flow_base = row_base = nnz_base = group_base = 0
    for request in requests:
        network = request.network
        n, nnz, num_groups = network._n, network._nnz, len(network._grp_keys)
        flows = slice(flow_base, flow_base + n)
        np.add(
            network._ptr[1 : n + 1], nnz_base,
            out=flow_ptr[flow_base + 1 : flow_base + 1 + n],
        )
        np.add(network._rows[:nnz], row_base, out=flow_rows[nnz_base : nnz_base + nnz])
        caps[row_base : row_base + len(network._link_ids)] = network._cap
        remaining[flows] = network._rem[:n]
        threshold[flows] = network._thr[:n]
        active[flows] = network._active[:n]
        groups = group_of[flows]
        np.add(network._grp[:n], group_base, out=groups)
        if network._ungrouped:
            groups[network._grp[:n] < 0] = -1
        group_left[group_base : group_base + num_groups] = network._grp_left[:num_groups]
        flow_base += n
        row_base += len(network._link_ids)
        nnz_base += nnz
        group_base += num_groups
    now_arr = scratch.get("now", num_blocks, np.float64)
    budget = scratch.get("budget", num_blocks, np.float64)
    max_steps = scratch.get("max_steps", num_blocks, np.int32)
    now_arr[:] = [request.now for request in requests]
    budget[:] = [
        np.inf if request.budget is None else request.budget for request in requests
    ]
    max_steps[:] = [request.max_steps for request in requests]
    # Output buffers the kernel accumulates into (vs. assigns) start zeroed.
    rates[:] = 0.0
    finished_count = scratch.get("finished_count", num_blocks, np.int32)
    finished_count[:] = 0
    next_flow = scratch.get("next_flow", num_blocks, np.float64)
    next_flow[:] = 0.0
    steps = scratch.get("steps", num_blocks, np.int32)
    steps[:] = 0
    stop_reason = scratch.get("stop_reason", num_blocks, np.int32)
    stop_reason[:] = 0
    solve_rounds = scratch.get("solve_rounds", num_blocks, np.int32)
    rounds_replayed = scratch.get("rounds_replayed", num_blocks, np.int32)

    if incremental_enabled():
        mode = 2
    elif warm_start_enabled():
        mode = 1
    else:
        mode = 0
    status = lib.waterfill_batch(
        num_blocks,
        scratch.ptr(ffi, "block_flows", "const int *"),
        scratch.ptr(ffi, "block_rows", "const int *"),
        scratch.ptr(ffi, "flow_ptr", "const int *"),
        scratch.ptr(ffi, "flow_rows", "const int *"),
        scratch.ptr(ffi, "caps", "const double *"),
        scratch.ptr(ffi, "remaining", "double *"),
        scratch.ptr(ffi, "threshold", "const double *"),
        scratch.ptr(ffi, "group_of", "const int *"),
        scratch.ptr(ffi, "group_left", "int *"),
        scratch.ptr(ffi, "now", "double *"),
        scratch.ptr(ffi, "budget", "const double *"),
        scratch.ptr(ffi, "rates", "double *"),
        scratch.ptr(ffi, "active", "unsigned char *"),
        scratch.ptr(ffi, "finished", "int *"),
        scratch.ptr(ffi, "finished_count", "int *"),
        scratch.ptr(ffi, "next_flow", "double *"),
        scratch.ptr(ffi, "steps", "int *"),
        scratch.ptr(ffi, "stop_reason", "int *"),
        scratch.ptr(ffi, "max_steps", "const int *"),
        mode,
        scratch.ptr(ffi, "solve_rounds", "int *"),
        scratch.ptr(ffi, "rounds_replayed", "int *"),
    )
    if status != 0:
        warnings.warn(
            "native fluid kernel (waterfill_batch) could not allocate scratch "
            "memory; falling back to the Python advance loop",
            RuntimeWarning,
            stacklevel=3,
        )
        return None

    outcomes: List[FlowAdvanceOutcome] = []
    group_base = 0
    for index, (request, base, retired, code, now, first_unconsumed, step_count,
                rounds, replayed) in enumerate(zip(
            requests,
            block_flows[:num_blocks].tolist(),
            finished_count.tolist(),
            stop_reason.tolist(),
            now_arr.tolist(),
            next_flow.tolist(),
            steps.tolist(),
            solve_rounds.tolist(),
            rounds_replayed.tolist(),
    )):
        network = request.network
        n = network._n
        num_groups = len(network._grp_keys)
        flows = slice(base, base + n)
        network._rem[:n] = remaining[flows]
        network._rate[:n] = rates[flows]
        reason = _STOP_REASONS[code]
        slots = None
        if retired:
            # Retired flows keep their slots, masked inactive, so the block's
            # layout survives into the next call without a rebuild.
            network._active[:n] = active[flows]
            network._live -= retired
            network._live_ids = None
            slots = finished[base : base + retired] - base
            left_after = group_left[group_base : group_base + num_groups]
            if reason == "group":
                network._settle_groups(left_after, slots)
            else:
                # The kernel stops at the first step that drains a group,
                # so no group drained in this call.
                network._grp_left[:num_groups] = left_after
        group_base += num_groups
        if reason == "stall" and not network._live:
            reason = "idle"
        # After a budget/stall stop the last solve covered exactly the
        # surviving flow set, so its rates can be reused (e.g. by the timed
        # branch's progress()); after a group/steps stop the flow set changed.
        network._rates_dirty = reason not in ("budget", "stall")
        outcomes.append(
            FlowAdvanceOutcome(
                now=now,
                next_flow=None if first_unconsumed == np.inf else first_unconsumed,
                steps=step_count,
                reason=reason,
                solve_rounds=rounds,
                rounds_replayed=replayed,
                network=network,
                finished_slots=slots,
                epoch=network._epoch,
            )
        )
    return outcomes


def total_path_bytes(flows: Iterable[Flow]) -> Dict[str, float]:
    """Aggregate bytes traversing each link (used for link-utilisation stats)."""
    usage: Dict[str, float] = {}
    for flow in flows:
        for link_id in flow.path:
            usage[link_id] = usage.get(link_id, 0.0) + flow.size_bytes
    return usage
