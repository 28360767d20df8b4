"""Sweep execution: single cases, worker pools and the result cache.

The runner executes :class:`~repro.sweep.spec.SweepConfig` records —
serially in-process, folded (many configs through one batched solve →
next-completion → advance loop), fanned out over a persistent pool of
worker processes, or both at once (folded *shards*, DESIGN.md §7) — and
returns structured, JSON-serializable :class:`SweepResult` records.  Results
are deterministic per configuration (each config carries its own seed and the
simulator is seed-deterministic) and folding/sharding are pure execution
transformations, so neither the worker count nor the fold width ever changes
the numbers, only the wall time.
"""

from __future__ import annotations

import itertools
import json
import os
import queue as queue_mod
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.spec import ClusterSpec
from repro.core.caches import clear_all_caches
from repro.core.runtime import IterationResult, RuntimeOptions, TrainingSimulator
from repro.fabric.base import Fabric
from repro.moe.models import MoEModelConfig
from repro.moe.trace import IterationRecord
from repro.sim.executor import Executor
from repro.sim.flows import service_advance_requests
from repro.sweep.phases import PHASE_FIELDS, PhaseAccumulator, phase_clock
from repro.sweep.pool import (
    ACK,
    DONE,
    READY,
    TASK_ERROR,
    MetricBoard,
    PersistentWorkerPool,
    attach_board,
)
from repro.sweep.registry import build_fabric, parse_failure, resolve_model
from repro.sweep.spec import SweepConfig, SweepSpec, structural_groups
from repro.sweep.template import StructuralTemplate, TemplateStore, get_template


def run_case(
    model: MoEModelConfig,
    fabric: Fabric,
    options: Optional[RuntimeOptions] = None,
    record: Optional[IterationRecord] = None,
    failure=None,
    cluster: Optional[ClusterSpec] = None,
) -> IterationResult:
    """Simulate one (model, fabric) case — the common core of every driver.

    ``simulate_fabrics`` and the sweep workers both funnel through here so a
    single code path owns simulator construction.
    """
    simulator = TrainingSimulator(
        model, cluster or fabric.cluster, fabric, options=options
    )
    return simulator.simulate_iteration(record=record, failure=failure)


@dataclass
class SweepResult:
    """Structured outcome of one sweep configuration."""

    config: Dict[str, object]
    config_hash: str
    fabric: str
    model: str
    iteration_time_s: float
    stage_time_s: float
    dp_allreduce_s: float
    pp_transfer_s: float
    reconfig_blocking_s: float
    comm_bytes: float
    compute_time_s: float
    num_micro_batches: int
    tokens_per_iteration: float
    tokens_per_second: float
    wall_time_s: float = 0.0
    # Phase breakdown (repro.sweep.phases): where the wall time went.  Zero
    # when the executing path does not time that phase (e.g. ``advance_s``
    # in unfolded runs, ``store_s`` without a cache).
    setup_s: float = 0.0
    solve_s: float = 0.0
    advance_s: float = 0.0
    store_s: float = 0.0
    #: How the structural template was obtained ("built" / "memory" /
    #: "disk"), or "none" for paths that run from scratch.
    template_source: str = "none"
    from_cache: bool = False
    #: Executor observability (DESIGN.md §10): events consumed by the
    #: event loop; water-filling rounds executed vs. inherited from the
    #: kernel's freeze record.  Folded and unfolded runs report identical
    #: counts; the round counters stay 0 on the scalar oracle.
    events: int = 0
    solve_rounds: int = 0
    rounds_replayed: int = 0

    @classmethod
    def from_iteration(
        cls,
        config: SweepConfig,
        result: IterationResult,
        wall_time_s: float,
        config_hash: Optional[str] = None,
    ) -> "SweepResult":
        return cls(
            config=config.to_dict(),
            config_hash=config_hash or config.config_hash(),
            fabric=result.fabric,
            model=result.model,
            iteration_time_s=result.iteration_time_s,
            stage_time_s=result.stage_time_s,
            dp_allreduce_s=result.dp_allreduce_s,
            pp_transfer_s=result.pp_transfer_s,
            reconfig_blocking_s=result.reconfig_blocking_s,
            comm_bytes=result.comm_bytes,
            compute_time_s=result.compute_time_s,
            num_micro_batches=result.num_micro_batches,
            tokens_per_iteration=result.tokens_per_iteration,
            tokens_per_second=result.tokens_per_second,
            wall_time_s=wall_time_s,
            from_cache=False,
            events=result.events,
            solve_rounds=result.solve_rounds,
            rounds_replayed=result.rounds_replayed,
        )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepResult":
        return cls(**payload)


#: The numeric fields of :class:`SweepResult`, in shared-memory row order.
#: Workers write one float64 vector per config onto the
#: :class:`~repro.sweep.pool.MetricBoard`; the parent reassembles the result
#: from this vector plus data it already holds (the config, its hash) and
#: two small strings from the ack.  float64 round-trips every field exactly
#: (``num_micro_batches`` is a small integer), so transport is bit-exact.
METRIC_FIELDS = (
    "iteration_time_s",
    "stage_time_s",
    "dp_allreduce_s",
    "pp_transfer_s",
    "reconfig_blocking_s",
    "comm_bytes",
    "compute_time_s",
    "num_micro_batches",
    "tokens_per_iteration",
    "tokens_per_second",
    "wall_time_s",
    "events",
    "solve_rounds",
    "rounds_replayed",
) + PHASE_FIELDS


def _result_from_metrics(
    config: SweepConfig,
    config_hash: str,
    fabric: str,
    model: str,
    template_source: str,
    vector: Sequence[float],
) -> SweepResult:
    """Rebuild a :class:`SweepResult` from a transported metric vector."""
    values = dict(zip(METRIC_FIELDS, vector))
    values["num_micro_batches"] = int(values["num_micro_batches"])
    for name in ("events", "solve_rounds", "rounds_replayed"):
        values[name] = int(values[name])
    return SweepResult(
        config=config.to_dict(),
        config_hash=config_hash,
        fabric=fabric,
        model=model,
        template_source=template_source,
        from_cache=False,
        **values,
    )


#: Uniquifies temp-file names within one process (two pool tasks — or the
#: runner and a pool worker sharing its pid after a fork-exec recycling —
#: must never interleave writes inside one temp file).
_TMP_COUNTER = itertools.count()


def _store_result(cache_dir: Optional[str], result: SweepResult) -> None:
    """Write one result into the cache atomically (multiprocess-safe).

    Temp file + ``os.replace``: a reader — or a second worker finishing the
    same structural group under a shared ``cache_dir`` — can never observe a
    partially-written JSON document, only the old file or the new one.
    """
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{result.config_hash}.json")
    tmp_path = f"{path}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=1, sort_keys=True)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):  # replace failed; don't litter the cache
            os.remove(tmp_path)


def _materialise(
    config: SweepConfig,
) -> Tuple[MoEModelConfig, ClusterSpec, Fabric, RuntimeOptions]:
    """Registry names -> concrete model/cluster/fabric/options for one config."""
    from repro.cluster import simulation_cluster

    model = resolve_model(config.model)
    cluster = simulation_cluster(
        config.num_servers,
        nic_bandwidth_gbps=config.nic_bandwidth_gbps,
        ocs_nics=config.ocs_nics,
    )
    fabric = build_fabric(config.fabric, cluster)
    # "auto" defers to the process-wide default (REPRO_RECONFIG_ENGINE /
    # set_default_engine), so e.g. the CI scalar-oracle leg reaches the
    # sweep path too.  An explicit engine in the config pins it.
    engine = None if config.reconfig_engine == "auto" else config.reconfig_engine
    options = RuntimeOptions(
        first_a2a_policy=config.first_a2a_policy,
        reconfiguration_delay_s=config.reconfiguration_delay_s,
        seed=config.seed,
        reconfig_engine=engine,
    )
    return model, cluster, fabric, options


def run_config(
    config: SweepConfig,
    config_hash: Optional[str] = None,
) -> SweepResult:
    """Materialise one configuration and simulate it — always from scratch.

    This is the reference path (no template): the differential tests compare
    templated folded execution against it.  It still reports the phase split
    (``setup_s`` = materialisation through executor construction, ``solve_s``
    = the fluid solve), so profiles of folded and unfolded runs line up.
    """
    start = phase_clock()
    model, cluster, fabric, options = _materialise(config)
    simulator = TrainingSimulator(model, cluster, fabric, options=options)
    prepared = simulator._prepare_iteration(None, parse_failure(config.failure))
    executor = Executor(prepared.graph, prepared.region)
    setup_end = phase_clock()
    execution = executor.run()
    solve_end = phase_clock()
    result = simulator._compose_result(prepared, execution)
    sweep_result = SweepResult.from_iteration(
        config, result, phase_clock() - start, config_hash=config_hash
    )
    sweep_result.setup_s = setup_end - start
    sweep_result.solve_s = solve_end - setup_end
    return sweep_result


def iter_run_config(
    config: SweepConfig,
    config_hash: Optional[str] = None,
    template: Optional[StructuralTemplate] = None,
):
    """Generator form of :func:`run_config` for folded execution.

    Yields :class:`~repro.sim.flows.FlowAdvanceRequest` objects (see
    :meth:`repro.sim.executor.Executor.iter_run`) and returns the
    :class:`SweepResult` as the generator's value.  ``template`` (the
    config's structural-key template) lets the simulator stamp shared
    artifacts instead of rebuilding them; results are bit-identical either
    way (``tests/test_sweep_template.py``).
    """
    start = phase_clock()
    model, cluster, fabric, options = _materialise(config)
    simulator = TrainingSimulator(
        model, cluster, fabric, options=options, template=template
    )
    result = yield from simulator.iter_simulation(
        failure=parse_failure(config.failure)
    )
    return SweepResult.from_iteration(
        config, result, phase_clock() - start, config_hash=config_hash
    )


def _ok_payload(board, slot: int, index: int, result: SweepResult) -> tuple:
    """Ack for one completed config: metrics on the board, strings inline."""
    vector = [float(getattr(result, name)) for name in METRIC_FIELDS]
    if board is not None:
        board.write(slot, vector)
        return ("ok", index, slot, result.fabric, result.model,
                result.template_source, None)
    return ("ok", index, slot, result.fabric, result.model,
            result.template_source, tuple(vector))


def _config_shard_task(
    emit,
    config_dicts: List[Dict[str, object]],
    hashes: List[str],
    indices: List[int],
    slots: List[int],
    cache_dir: Optional[str],
    board_name: Optional[str],
    num_slots: int,
) -> None:
    """Pool task: one worker's share of unfolded cache-miss configs.

    Each config is simulated, written through to the cache (crash salvage),
    its metric vector placed on the shared-memory board, and acked with two
    small strings — the numbers never travel through a pickle.
    """
    board = attach_board(board_name, num_slots, len(METRIC_FIELDS))
    try:
        for config_dict, config_hash, index, slot in zip(
            config_dicts, hashes, indices, slots
        ):
            try:
                config = SweepConfig.from_dict(config_dict)
                result = run_config(config, config_hash=config_hash)
            except Exception as exc:  # noqa: BLE001 — structured error record
                emit(("err", index, f"{type(exc).__name__}: {exc}"))
                continue
            _store_result(cache_dir, result)
            emit(_ok_payload(board, slot, index, result))
    finally:
        if board is not None:
            board.close()


def _fold_shard_task(
    emit,
    config_dicts: List[Dict[str, object]],
    hashes: List[str],
    indices: List[int],
    slots: List[int],
    cache_dir: Optional[str],
    board_name: Optional[str],
    num_slots: int,
    fold_width: int,
    template_dir: Optional[str] = None,
) -> None:
    """Pool task: one worker's shard of whole structural groups, run folded.

    The shard re-enters :class:`FoldedSweepRunner` serially in-worker, so a
    sharded parallel run is exactly N independent serial folded runs — which
    is why its results are bit-identical to the serial folded runner.  Each
    result streams out (write-through cache, board row, ack) the moment its
    generator finishes, not at shard end.  ``template_dir`` hands the worker
    the on-disk template tier: the template of each structural group is
    built (or disk-loaded) once per shard task and shared by every config in
    the shard; since shards hold whole groups, no group's template is built
    twice across the pool.
    """
    board = attach_board(board_name, num_slots, len(METRIC_FIELDS))
    try:
        configs = [SweepConfig.from_dict(d) for d in config_dicts]
        shard = FoldedSweepRunner(
            configs, fold_width=fold_width, cache_dir=cache_dir,
            template_dir=template_dir,
        )
        shard.result_callback = lambda local, result: emit(
            _ok_payload(board, slots[local], indices[local], result)
        )
        results: List[Optional[SweepResult]] = [None] * len(configs)
        # The parent already established these are cache misses and computed
        # their hashes; enter below run() to skip a redundant cache pass.
        errors = shard._run_misses(
            list(range(len(configs))), list(hashes), results
        )
        index_of_hash = dict(zip(hashes, indices))
        for error in errors:
            emit(("err", index_of_hash[error.config_hash], error.error))
    finally:
        if board is not None:
            board.close()


def _reset_caches_task(emit) -> None:
    """Worker-side cache reset: walk the registry, report what was cleared.

    Lives at module level so it pickles under every start method.  The emit
    payload (the sorted cache names walked) lets the parent — and the pool
    reset test — assert the walk covered every registered cache, including
    ones registered after this function was written.
    """
    emit(clear_all_caches())


@dataclass
class SweepError:
    """Structured record of one configuration that failed to simulate."""

    config: Dict[str, object]
    config_hash: str
    error: str


class SweepRunError(RuntimeError):
    """One or more configurations failed.

    Raised after the run drains: every configuration that *did* complete has
    already been written through to the cache, so a rerun only repeats the
    failures.  ``errors`` holds one :class:`SweepError` per failure.
    """

    def __init__(self, errors: Sequence[SweepError]) -> None:
        self.errors = list(errors)
        summary = "; ".join(
            f"{error.config_hash}: {error.error}" for error in self.errors
        )
        super().__init__(
            f"{len(self.errors)} sweep configuration(s) failed "
            f"(completed results were cached): {summary}"
        )


class SweepRunner:
    """Runs a sweep, optionally parallel and optionally cached.

    Parallel runs execute on a :class:`~repro.sweep.pool.PersistentWorkerPool`
    owned by the runner: workers are spawned once per runner lifetime (not
    per ``run()`` call), arrive warm (the cffi kernel pre-loaded) and stay
    resident between grids.  Use the runner as a context manager, or call
    :meth:`close`, to release them; an abandoned runner's workers are
    daemonic and die with the process.

    Args:
        sweep: A :class:`SweepSpec` or an explicit sequence of
            :class:`SweepConfig` records.
        workers: Worker processes; ``0`` or ``1`` runs inline (no pool).
        cache_dir: Directory for per-configuration result JSON keyed by the
            config hash; ``None`` disables caching.
    """

    def __init__(
        self,
        sweep: Union[SweepSpec, Sequence[SweepConfig]],
        workers: int = 0,
        cache_dir: Optional[str] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.configs: List[SweepConfig] = (
            sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
        )
        self.workers = workers
        self.cache_dir = cache_dir
        self._pool: Optional[PersistentWorkerPool] = None

    # ------------------------------------------------------------------ pool
    def _ensure_pool(self) -> PersistentWorkerPool:
        if self._pool is None:
            self._pool = PersistentWorkerPool(self.workers)
        self._pool.start()
        return self._pool

    def warm_up(self) -> None:
        """Spawn and warm the worker pool now (instead of on first run).

        Lets benchmarks and services pay the one-time pool cost outside the
        measured/served region.  Inline runners (``workers <= 1``) no-op.
        """
        if self.workers > 1:
            self._ensure_pool()

    def reset_caches(self, timeout_s: float = 30.0) -> None:
        """Clear every registered cache locally and in the live pool workers.

        Both sides route through :func:`repro.core.caches.clear_all_caches`
        (the registry walk), so a cache added later participates without
        this method changing.  Worker resets run as ordinary pool tasks and
        are drained synchronously; a worker that dies mid-reset is skipped —
        its replacement starts with empty caches anyway.  A pool that was
        never spawned has nothing to reset.
        """
        clear_all_caches()
        pool = self._pool
        if pool is None:
            return
        pending: Dict[int, int] = {}
        for worker_id in range(pool.workers):
            if pool.is_alive(worker_id):
                task_id = pool.submit(worker_id, _reset_caches_task, ())
                pending[task_id] = worker_id
        deadline = time.monotonic() + timeout_s
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"worker cache reset timed out with {len(pending)} "
                    f"task(s) outstanding"
                )
            try:
                kind, _worker_id, task_id, _payload = pool.events(
                    timeout=min(remaining, 0.5)
                )
            except queue_mod.Empty:
                pending = {
                    task_id: worker_id
                    for task_id, worker_id in pending.items()
                    if pool.is_alive(worker_id)
                }
                continue
            if kind in (DONE, TASK_ERROR):
                pending.pop(task_id, None)

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — best-effort
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # ----------------------------------------------------------------- cache
    def _cache_path(self, config_hash: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{config_hash}.json")

    def _cache_load(self, config_hash: str) -> Optional[SweepResult]:
        path = self._cache_path(config_hash)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("config_hash") != config_hash:
                return None
            result = SweepResult.from_dict(payload)
        except (OSError, ValueError, TypeError, AttributeError, KeyError):
            # Unreadable, non-dict, or schema-mismatched entries (e.g. written
            # by a different version) are recomputed rather than fatal.
            return None
        result.from_cache = True
        return result

    def _cache_store(self, result: SweepResult) -> None:
        _store_result(self.cache_dir, result)

    # ------------------------------------------------------------------- run
    def run(self) -> List[SweepResult]:
        """Execute the sweep; results are ordered like the configurations.

        Raises:
            SweepRunError: If any configuration failed.  Raised only after
                every other configuration has run (and been cached), so a
                rerun repeats just the failures.
        """
        # The content hash is the cache key three times over (path, stale
        # check, store); compute it once per config per run.
        hashes = [config.config_hash() for config in self.configs]
        results: List[Optional[SweepResult]] = [None] * len(self.configs)
        misses: List[int] = []
        for index, config_hash in enumerate(hashes):
            cached = self._cache_load(config_hash)
            if cached is not None:
                results[index] = cached
            else:
                misses.append(index)

        if misses:
            errors = self._run_misses(misses, hashes, results)
            if errors:
                raise SweepRunError(errors)

        assert all(result is not None for result in results)
        return [result for result in results if result is not None]

    def _run_misses(
        self,
        misses: List[int],
        hashes: List[str],
        results: List[Optional[SweepResult]],
    ) -> List[SweepError]:
        """Simulate the cache misses in place; return per-config failures."""
        if self.workers <= 1:
            for index in misses:
                result = run_config(self.configs[index], config_hash=hashes[index])
                self._cache_store(result)
                results[index] = result
            return []
        shards = self._shard_misses(misses, hashes)
        return self._run_parallel(misses, hashes, results, shards)

    # ------------------------------------------------------- parallel driving
    def _shard_misses(
        self, misses: List[int], hashes: List[str]
    ) -> List[List[int]]:
        """Static per-worker assignment for the unfolded path (round-robin)."""
        shards: List[List[int]] = [[] for _ in range(self.workers)]
        for position, index in enumerate(misses):
            shards[position % self.workers].append(index)
        return shards

    def _make_shard_task(
        self,
        indices: List[int],
        hashes: List[str],
        slot_of: Dict[int, int],
        board: MetricBoard,
    ) -> Tuple[Callable, tuple]:
        """(task function, args) for one worker's shard."""
        return _config_shard_task, (
            [self.configs[i].to_dict() for i in indices],
            [hashes[i] for i in indices],
            indices,
            [slot_of[i] for i in indices],
            self.cache_dir,
            board.name,
            board.num_slots,
        )

    def _salvage_inline(
        self,
        indices: List[int],
        hashes: List[str],
        results: List[Optional[SweepResult]],
        errors: Dict[int, SweepError],
    ) -> None:
        """Re-run configs a dead worker still owed, in this process."""
        for index in indices:
            config = self.configs[index]
            try:
                result = run_config(config, config_hash=hashes[index])
            except Exception as exc:  # noqa: BLE001 — structured error record
                errors[index] = SweepError(
                    config=config.to_dict(),
                    config_hash=hashes[index],
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                self._cache_store(result)
                results[index] = result

    def _run_parallel(
        self,
        misses: List[int],
        hashes: List[str],
        results: List[Optional[SweepResult]],
        shards: List[List[int]],
    ) -> List[SweepError]:
        """Drive the persistent pool over pre-assigned shards.

        Every completed config streams back as an ack (metrics via shared
        memory) and is recorded immediately; a worker that dies mid-shard is
        detected by liveness polling, its already-cached work reloaded, the
        remainder re-run inline, and the worker respawned so the pool stays
        whole for the next run.
        """
        errors: Dict[int, SweepError] = {}
        slot_of = {index: slot for slot, index in enumerate(misses)}
        board = MetricBoard(len(misses), len(METRIC_FIELDS))
        pool = self._ensure_pool()
        task_meta: Dict[int, Tuple[int, List[int]]] = {}
        outstanding: set = set()
        acked: set = set()

        def handle(event) -> None:
            kind, _worker_id, task_id, payload = event
            if kind == ACK:
                tag = payload[0]
                if tag == "ok":
                    _, index, slot, fabric, model, template_source, metrics = payload
                    vector = board.row(slot) if metrics is None else list(metrics)
                    results[index] = _result_from_metrics(
                        self.configs[index], hashes[index], fabric, model,
                        template_source, vector,
                    )
                else:
                    _, index, message = payload
                    errors[index] = SweepError(
                        config=self.configs[index].to_dict(),
                        config_hash=hashes[index],
                        error=message,
                    )
                acked.add(index)
            elif kind == DONE:
                outstanding.discard(task_id)
            elif kind == TASK_ERROR:
                # The task function itself blew up (not one config): treat
                # like a crash of just that task — salvage whatever is owed.
                salvage_task(task_id)
                outstanding.discard(task_id)
            elif kind == READY:  # a respawned worker warming up; ignore
                pass

        def salvage_task(task_id: int) -> None:
            _worker_id, indices = task_meta[task_id]
            pending = [i for i in indices if i not in acked]
            recompute: List[int] = []
            for index in pending:
                # Write-through salvage: anything the worker finished (and
                # cached) before dying is loaded, not re-simulated.
                cached = self._cache_load(hashes[index])
                if cached is not None:
                    results[index] = cached
                else:
                    recompute.append(index)
                acked.add(index)
            if recompute:
                self._salvage_inline(recompute, hashes, results, errors)

        try:
            for worker_id, indices in enumerate(shards):
                if not indices:
                    continue
                func, args = self._make_shard_task(indices, hashes, slot_of, board)
                task_id = pool.submit(worker_id, func, args)
                task_meta[task_id] = (worker_id, indices)
                outstanding.add(task_id)

            while outstanding:
                try:
                    handle(pool.events(timeout=0.1))
                    continue
                except queue_mod.Empty:
                    pass
                dead_workers = {
                    task_meta[task_id][0]
                    for task_id in outstanding
                    if not pool.is_alive(task_meta[task_id][0])
                }
                if not dead_workers:
                    continue
                # Drain acks the dead worker flushed before dying — they are
                # completed work, not salvage.
                while True:
                    try:
                        handle(pool.events(timeout=0.05))
                    except queue_mod.Empty:
                        break
                for worker_id in dead_workers:
                    owed = [
                        task_id
                        for task_id in list(outstanding)
                        if task_meta[task_id][0] == worker_id
                    ]
                    for task_id in owed:
                        salvage_task(task_id)
                        outstanding.discard(task_id)
                    pool.respawn(worker_id)
        finally:
            board.close()
        return [errors[index] for index in sorted(errors)]


class FoldedSweepRunner(SweepRunner):
    """Folded sweep execution (DESIGN.md §6-§7): structurally-compatible
    configurations advance through one batched solve → next-completion →
    advance loop — optionally sharded over worker processes.

    Cache misses are grouped by :meth:`SweepConfig.structural_key`; each
    group's simulations run as :func:`iter_run_config` generators serviced in
    lockstep by :func:`repro.sim.flows.service_advance_requests`, so a single
    ``waterfill_batch`` call carries every member's flow events between
    Python-side task events.  With ``workers=N`` the groups are sharded
    *whole* across the persistent pool by config hash — a group never splits,
    so each worker's batches stay regular and every worker is exactly a
    serial folded runner over its shard; results are therefore bit-identical
    to the serial folded runner (and to the unfolded runner) at any worker
    count.  Results are bit-identical to the unfolded runner: each
    configuration's network is an independent block of the batched CSR, and
    the C loop replays the executor's event loop exactly.

    A configuration whose generator raises falls back to the unfolded
    per-config path; only if that also fails is a :class:`SweepError`
    recorded (and raised as :class:`SweepRunError` after the rest complete).

    Args:
        sweep: Spec or explicit config list, as for :class:`SweepRunner`.
        fold_width: Maximum configurations folded into one batch (per worker
            when sharded).
        cache_dir: Per-config result cache, as for :class:`SweepRunner`.
        workers: Worker processes; ``0`` or ``1`` folds inline.
        template_dir: Directory of the on-disk
            :class:`~repro.sweep.template.TemplateStore` (second tier of the
            structural-template cache); ``None`` keeps templates in-memory
            only.  The in-memory tier is always on — it is what amortises
            materialisation across a group's configs.
    """

    def __init__(
        self,
        sweep: Union[SweepSpec, Sequence[SweepConfig]],
        fold_width: int = 16,
        cache_dir: Optional[str] = None,
        workers: int = 0,
        template_dir: Optional[str] = None,
    ) -> None:
        super().__init__(sweep, workers=workers, cache_dir=cache_dir)
        if fold_width < 1:
            raise ValueError("fold_width must be positive")
        self.fold_width = fold_width
        self.template_dir = template_dir
        #: Invoked as ``callback(index, result)`` whenever a configuration
        #: completes (folded or via fallback).  Used by the in-worker shard
        #: task to stream results; ``None`` outside the pool.
        self.result_callback: Optional[Callable[[int, SweepResult], None]] = None

    def _template_store(self) -> Optional[TemplateStore]:
        if self.template_dir is None:
            return None
        return TemplateStore(self.template_dir)

    def _run_misses(
        self,
        misses: List[int],
        hashes: List[str],
        results: List[Optional[SweepResult]],
    ) -> List[SweepError]:
        if self.workers > 1:
            shards = self._shard_groups(misses, hashes)
            return self._run_parallel(misses, hashes, results, shards)
        errors: Dict[int, SweepError] = {}
        self._fold_serial(misses, hashes, results, errors)
        return [errors[index] for index in sorted(errors)]

    # ---------------------------------------------------------- serial fold
    def _fold_serial(
        self,
        misses: List[int],
        hashes: List[str],
        results: List[Optional[SweepResult]],
        errors: Dict[int, SweepError],
    ) -> None:
        grouped = structural_groups([self.configs[index] for index in misses])
        # One template per structural group, fetched lazily on first
        # admission (memory tier, then the optional disk store) and shared by
        # every generator of the group; per-config phase accumulators time
        # the generators from outside, so the simulator itself carries no
        # instrumentation.
        store = self._template_store()
        key_of: Dict[int, tuple] = {}
        order: List[int] = []
        for key, positions in grouped.items():
            for position in positions:
                index = misses[position]
                key_of[index] = key
                order.append(index)
        templates: Dict[tuple, Tuple[StructuralTemplate, str]] = {}
        phases_of: Dict[int, PhaseAccumulator] = {}
        source_of: Dict[int, str] = {}
        # Admission order: structurally-compatible configs march together, so
        # batches stay regular; fold_width caps how many simulations are live
        # (and hold memory) at once.  Every live generator — regardless of
        # group — is serviced by the same batched advance each round.
        pending = iter(order)
        live: List[Tuple[int, object, object]] = []

        def admit() -> None:
            while len(live) < self.fold_width:
                index = next(pending, None)
                if index is None:
                    return
                try:
                    key = key_of[index]
                    entry = templates.get(key)
                    if entry is None:
                        entry = get_template(key, store=store)
                        templates[key] = entry
                    template, source = entry
                    generator = iter_run_config(
                        self.configs[index],
                        config_hash=hashes[index],
                        template=template,
                    )
                except Exception:  # noqa: BLE001 — straggler leaves the fold
                    self._run_unfolded(index, hashes, results, errors)
                    continue
                source_of[index] = source
                phases_of[index] = PhaseAccumulator()
                self._step(index, generator, None, live, hashes, results, errors,
                           phases_of, source_of)

        admit()
        while live:
            solve_start = phase_clock()
            outcomes = service_advance_requests([entry[2] for entry in live])
            # The batched solve serves every live config at once; share its
            # wall time equally — the split is a reporting convention, the
            # total is exact.
            solve_share = (phase_clock() - solve_start) / len(live)
            stepping, live = live, []
            for (index, generator, _), outcome in zip(stepping, outcomes):
                phases_of[index].solve_s += solve_share
                self._step(index, generator, outcome, live, hashes, results,
                           errors, phases_of, source_of)
            admit()

        if store is not None:
            for template, _source in templates.values():
                # Persist new artifacts, and first-time templates even when
                # they hold none (static fabrics): presence on disk is what
                # lets a later process count a "disk" hit instead of
                # rebuilding silently.
                if template.dirty or not os.path.exists(
                    store.path_for(template.key)
                ):
                    store.save(template)

    def _record(self, index, result, results, phases=None, source="none") -> None:
        """One configuration finished: cache it, place it, stream it."""
        store_start = phase_clock()
        self._cache_store(result)
        if phases is not None:
            phases.store_s = phase_clock() - store_start
            phases.apply(result)
        result.template_source = source
        results[index] = result
        if self.result_callback is not None:
            self.result_callback(index, result)

    def _step(self, index, generator, outcome, live, hashes, results, errors,
              phases_of=None, source_of=None):
        phases = phases_of.get(index) if phases_of is not None else None
        step_start = phase_clock()
        try:
            if outcome is None:
                request = next(generator)
            else:
                request = generator.send(outcome)
        except StopIteration as stop:
            if phases is not None:
                elapsed = phase_clock() - step_start
                if outcome is None:
                    phases.setup_s += elapsed
                else:
                    phases.advance_s += elapsed
            source = source_of.get(index, "none") if source_of else "none"
            self._record(index, stop.value, results, phases=phases, source=source)
        except Exception:  # noqa: BLE001 — straggler leaves the fold
            self._run_unfolded(index, hashes, results, errors)
        else:
            if phases is not None:
                elapsed = phase_clock() - step_start
                # The first step runs materialisation + simulator + DAG build
                # up to the first flow batch: that is setup.  Later steps are
                # Python-side task bookkeeping between solves: advance.
                if outcome is None:
                    phases.setup_s += elapsed
                else:
                    phases.advance_s += elapsed
            live.append((index, generator, request))

    def _run_unfolded(self, index, hashes, results, errors):
        """Per-config fallback for stragglers that cannot run folded."""
        config = self.configs[index]
        try:
            result = run_config(config, config_hash=hashes[index])
        except Exception as exc:  # noqa: BLE001 — structured error record
            errors[index] = SweepError(
                config=config.to_dict(),
                config_hash=hashes[index],
                error=f"{type(exc).__name__}: {exc}",
            )
        else:
            self._record(index, result, results)

    # -------------------------------------------------------- group sharding
    def _shard_groups(
        self, misses: List[int], hashes: List[str]
    ) -> List[List[int]]:
        """Partition cache misses into per-worker shards, whole groups only.

        A structural group is identified by the smallest ``config_hash``
        among its members; groups are ordered largest-first (ties by that
        hash) and assigned greedily to the least-loaded worker.  Entirely a
        function of the miss set's hashes, so the sharding is deterministic
        — and because a group never splits, each worker's fold sees exactly
        the batches a serial folded run over those configs would see.
        """
        grouped = structural_groups([self.configs[index] for index in misses])
        ordered = sorted(
            (
                [misses[position] for position in positions]
                for positions in grouped.values()
            ),
            key=lambda indices: (-len(indices), min(hashes[i] for i in indices)),
        )
        shards: List[List[int]] = [[] for _ in range(self.workers)]
        loads = [0] * self.workers
        for group in ordered:
            target = min(range(self.workers), key=lambda w: (loads[w], w))
            shards[target].extend(group)
            loads[target] += len(group)
        return shards

    def _make_shard_task(
        self,
        indices: List[int],
        hashes: List[str],
        slot_of: Dict[int, int],
        board: MetricBoard,
    ) -> Tuple[Callable, tuple]:
        return _fold_shard_task, (
            [self.configs[i].to_dict() for i in indices],
            [hashes[i] for i in indices],
            indices,
            [slot_of[i] for i in indices],
            self.cache_dir,
            board.name,
            board.num_slots,
            self.fold_width,
            self.template_dir,
        )

    def _salvage_inline(
        self,
        indices: List[int],
        hashes: List[str],
        results: List[Optional[SweepResult]],
        errors: Dict[int, SweepError],
    ) -> None:
        """Salvage a dead worker's leftovers with a serial fold (groups are
        still whole — a shard only ever contains complete groups)."""
        self._fold_serial(indices, hashes, results, errors)
