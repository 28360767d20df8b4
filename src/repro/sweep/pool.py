"""Persistent warm worker pool and zero-copy result transport.

The sweep engine used to build a fresh ``multiprocessing.Pool`` per grid and
ship every result back as a pickled ``imap_unordered`` payload.  Both costs
recur per run: pool construction forks N processes whose first batch then
pays the cffi kernel load, and every per-config metric vector is pickled,
piped and unpickled.  This module replaces them with two primitives:

* :class:`PersistentWorkerPool` — N worker processes spawned once per
  :class:`~repro.sweep.runner.SweepRunner` lifetime and reused across
  ``run()`` calls.  Each worker pre-loads :mod:`repro.sim._native` before
  reporting ready, so the cffi kernel is compiled/loaded (serialised by the
  build lock) before the first batch arrives.  Tasks are function references
  with positional arguments; workers stream intermediate acknowledgements
  through a shared result queue, so the parent observes per-config progress
  and can detect a dead worker mid-shard.  A crashed worker is respawned on
  request, keeping the pool usable for the next run.

* :class:`MetricBoard` / :func:`attach_board` — a ``multiprocessing.shared_memory``
  float64 matrix with one row per in-flight configuration.  Workers write
  each config's metric vector into its row and ack only a few small strings;
  the parent reads the row back without any pickling of the numbers.  When
  shared memory is unavailable the board degrades to ``None`` and callers
  fall back to inline (pickled) metric tuples — slower, never wrong.

Everything here is sweep-agnostic: task functions live in
:mod:`repro.sweep.runner`, which owns sharding, salvage and result assembly.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: Event kinds flowing back from workers (see :meth:`PersistentWorkerPool.events`).
READY = "ready"
ACK = "ack"
DONE = "done"
TASK_ERROR = "task_error"


def _pool_worker(worker_id: int, tasks, results) -> None:
    """Worker main loop (module-level so it pickles under every start method).

    Pre-loads the native kernel (the warm-up that makes the pool "warm"),
    reports ready, then executes ``(task_id, func, args)`` records until the
    ``None`` sentinel arrives.  ``func`` receives an ``emit`` callable first:
    every ``emit(payload)`` becomes an ``ACK`` event in the parent, streamed
    as the task progresses rather than batched at task end.
    """
    try:
        from repro.sim import _native

        _native.native_lib()
    except Exception:  # noqa: BLE001 — no kernel: workers run the oracle
        pass
    try:
        # Import the sweep stack (runner, template cache, simulator) before
        # reporting ready, so the first shard task measures simulation, not
        # module import.
        import repro.sweep.runner  # noqa: F401 — warm-up import
    except Exception:  # noqa: BLE001 — degrade to importing on first task
        pass
    results.put((READY, worker_id, -1, None))
    while True:
        task = tasks.get()
        if task is None:
            break
        task_id, func, args = task

        def emit(payload: Any, _task_id: int = task_id) -> None:
            results.put((ACK, worker_id, _task_id, payload))

        try:
            func(emit, *args)
        except Exception as exc:  # noqa: BLE001 — parent salvages the task
            results.put(
                (TASK_ERROR, worker_id, task_id, f"{type(exc).__name__}: {exc}")
            )
        else:
            results.put((DONE, worker_id, task_id, None))


class PersistentWorkerPool:
    """A fixed set of reusable worker processes with streamed results.

    Unlike ``multiprocessing.Pool`` the task→worker assignment is the
    caller's: :meth:`submit` targets a specific worker, which is what lets
    the sweep runner shard whole structural groups deterministically and
    know exactly which configurations a dead worker still owed.

    Workers are daemonic, so an abandoned pool cannot outlive the parent;
    :meth:`close` shuts down cooperatively.
    """

    #: Seconds to wait for a worker's ready event (covers a cold cffi build).
    READY_TIMEOUT_S = 180.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._ctx = multiprocessing.get_context()
        self._procs: List[Optional[multiprocessing.Process]] = [None] * workers
        self._task_queues: List[Any] = [None] * workers
        self._results: Any = None
        self._ready: set = set()
        self._next_task_id = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the workers and block until every one reports ready (warm)."""
        if self._started:
            return
        if self._closed:
            raise RuntimeError("pool has been closed")
        # Start the parent's shared-memory resource tracker before forking:
        # workers then inherit it, so their BoardView attachments register
        # with the tracker that the parent's unlink() unregisters from.  A
        # worker forked first would start a private tracker, which reports
        # every attached segment as leaked when the worker exits.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._results = self._ctx.Queue()
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        self._started = True
        self._await_ready()

    def _spawn(self, worker_id: int) -> None:
        tasks = self._ctx.Queue()
        process = self._ctx.Process(
            target=_pool_worker,
            args=(worker_id, tasks, self._results),
            daemon=True,
            name=f"sweep-worker-{worker_id}",
        )
        process.start()
        self._task_queues[worker_id] = tasks
        self._procs[worker_id] = process

    def _await_ready(self) -> None:
        while len(self._ready) < self.workers:
            try:
                kind, worker_id, _, _ = self._results.get(
                    timeout=self.READY_TIMEOUT_S
                )
            except queue_mod.Empty as exc:  # pragma: no cover — hung build
                raise RuntimeError(
                    "worker pool failed to warm up (native kernel build hung?)"
                ) from exc
            if kind == READY:
                self._ready.add(worker_id)

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh process (new empty queue).

        The old task queue may still hold tasks the dead worker never took;
        they are dropped here — the caller is expected to have salvaged the
        work they represented before asking for the respawn.
        """
        old_queue = self._task_queues[worker_id]
        if old_queue is not None:
            old_queue.cancel_join_thread()
            old_queue.close()
        process = self._procs[worker_id]
        if process is not None and process.is_alive():  # pragma: no cover
            process.terminate()
        self._ready.discard(worker_id)
        self._spawn(worker_id)
        # The fresh worker's READY event is consumed (and ignored) by
        # whatever events() loop is running; no need to block on it here.

    def is_alive(self, worker_id: int) -> bool:
        process = self._procs[worker_id]
        return process is not None and process.is_alive()

    def close(self) -> None:
        """Cooperative shutdown; safe to call twice or on a never-started pool."""
        if self._closed or not self._started:
            self._closed = True
            return
        for tasks in self._task_queues:
            if tasks is None:
                continue
            try:
                tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover — queue gone
                pass
        for process in self._procs:
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover — wedged worker
                    process.terminate()
                    process.join(timeout=1.0)
        for tasks in self._task_queues:
            if tasks is not None:
                tasks.cancel_join_thread()
                tasks.close()
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
        self._closed = True

    def __enter__(self) -> "PersistentWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — best-effort
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # ------------------------------------------------------------------ work
    def submit(
        self, worker_id: int, func: Callable, args: Tuple[Any, ...]
    ) -> int:
        """Queue ``func(emit, *args)`` on one worker; returns the task id."""
        if not self._started:
            self.start()
        task_id = self._next_task_id
        self._next_task_id += 1
        self._task_queues[worker_id].put((task_id, func, args))
        return task_id

    def events(self, timeout: float) -> Tuple[str, int, int, Any]:
        """Next ``(kind, worker_id, task_id, payload)`` event.

        Raises :class:`queue.Empty` on timeout — the caller interleaves
        liveness checks (:meth:`is_alive`) with event consumption.
        """
        return self._results.get(timeout=timeout)


# ----------------------------------------------------------- shared memory
class MetricBoard:
    """Shared-memory matrix of per-config metric vectors (one row per slot).

    Created by the parent per run; workers attach by name via
    :func:`attach_board` and write rows in place.  ``name`` is ``None`` when
    shared memory is unavailable — callers then transport metrics inline.
    """

    def __init__(self, num_slots: int, num_metrics: int) -> None:
        self.num_slots = num_slots
        self.num_metrics = num_metrics
        self.name: Optional[str] = None
        self.array: Optional[np.ndarray] = None
        self._shm = None
        try:
            from multiprocessing import shared_memory

            self._shm = shared_memory.SharedMemory(
                create=True, size=max(8 * num_slots * num_metrics, 8)
            )
            self.array = np.ndarray(
                (num_slots, num_metrics), dtype=np.float64, buffer=self._shm.buf
            )
            self.array.fill(0.0)
            self.name = self._shm.name
        except Exception:  # noqa: BLE001 — no /dev/shm etc.: degrade inline
            self._release()

    def row(self, slot: int) -> List[float]:
        assert self.array is not None
        return self.array[slot].tolist()

    def _release(self) -> None:
        if self._shm is not None:
            # Drop the ndarray view first: SharedMemory.close() refuses to
            # unmap while exported buffers exist.
            self.array = None
            try:
                self._shm.close()
                self._shm.unlink()
            except Exception:  # noqa: BLE001 — already gone
                pass
            self._shm = None
        self.name = None

    def close(self) -> None:
        """Unlink the segment (parent side, once all rows are read)."""
        self._release()

    def __del__(self) -> None:  # pragma: no cover — best-effort
        self._release()


class BoardView:
    """Worker-side attachment to a :class:`MetricBoard` by name."""

    def __init__(self, name: str, num_slots: int, num_metrics: int) -> None:
        from multiprocessing import shared_memory

        # On Python < 3.13 attaching also registers the segment with the
        # resource tracker.  PersistentWorkerPool.start() starts the parent's
        # tracker before forking, so workers share it and registration is an
        # idempotent set-add — the parent's unlink() performs the single
        # matching unregister.  (Unregistering here instead would strip the
        # *parent's* entry from the shared tracker and make that unlink raise
        # inside it.)
        self._shm = shared_memory.SharedMemory(name=name)
        self.array = np.ndarray(
            (num_slots, num_metrics), dtype=np.float64, buffer=self._shm.buf
        )

    def write(self, slot: int, values) -> None:
        self.array[slot, :] = values

    def close(self) -> None:
        self.array = None
        try:
            self._shm.close()
        except Exception:  # noqa: BLE001
            pass


def attach_board(
    name: Optional[str], num_slots: int, num_metrics: int
) -> Optional[BoardView]:
    """Attach to the parent's board; ``None`` name or failure → inline mode."""
    if name is None:
        return None
    try:
        return BoardView(name, num_slots, num_metrics)
    except Exception:  # noqa: BLE001 — degrade to inline metric transport
        return None
