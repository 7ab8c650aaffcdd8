"""Partition-parallel execution of support-statistics workloads.

The columnar view batches the per-level math on one core; this
module distributes those batches across worker processes without changing a
single bit of the results.  Two orthogonal axes of parallelism exist:

* **row shards** — the database is split into ``K`` contiguous row ranges
  (:mod:`repro.db.partition`); candidate probability vectors are extracted
  per shard and concatenated.  Because every per-transaction product is
  computed row-locally, the concatenated vector is *bitwise identical* to
  the vector the unpartitioned view produces.
* **candidate chunks** — the expensive tail evaluations (the DP recurrence,
  the divide-and-conquer convolution) are independent per candidate, so a
  level is split into even chunks, each evaluated by the same serial kernel
  a single-core run would use.  Chunk boundaries cannot change any value:
  the batched DP treats padding columns as Bernoulli(0) identity steps and
  the convolution is per-candidate to begin with.

Consequently a run with any ``(workers, shards)`` combination returns
byte-identical frequent itemsets and tail probabilities to the serial
columnar path — the property pinned by ``tests/test_partition_parallel.py``.

The process backend is a :class:`concurrent.futures.ProcessPoolExecutor`
with a fork-preferring context; shard views are shipped to the workers once
(pool initializer) rather than per task.  The executor is also the only
place where per-shard results are merged: at ``workers=1`` the same fan-out
runs in-process, so serial and pooled sharded runs share one code path.

**Zero-copy fan-out.**  Shards never cross the process boundary as data.
The pool initializer receives a list of O(bytes)-sized *descriptors*, one
per shard, which each worker resolves locally:

* a memory-mapped shard (``repro.db.store``) travels as its
  ``(directory, start, stop)`` store source and is re-mapped on arrival;
* an in-RAM shard is packed once into a ``multiprocessing.shared_memory``
  segment by the coordinator and workers attach read-only views, so all
  workers share one physical copy.

Attachment is verified, not assumed: a vanished store directory fails the
dispatch on the coordinator before the pool spawns, and a vanished
shared-memory segment surfaces as a clear ``RuntimeError`` from the first
task instead of an initializer crash-loop.  Segments are always unlinked
on ``close()``/``terminate()``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..plan.spec import resolve_knob
from .support import (
    dc_tail_probabilities,
    frequent_probabilities_dp_batch,
    resolve_conv_span,
)

__all__ = [
    "ParallelExecutor",
    "live_pool_count",
    "pool_restart_count",
    "resolve_workers",
    "resolve_shards",
    "even_chunks",
]

#: process-wide count of worker pools currently alive (see live_pool_count)
_LIVE_POOLS = 0
_LIVE_POOLS_LOCK = threading.Lock()

#: process-wide count of pools rebuilt after dead-worker detection
_POOL_RESTARTS = 0

#: pool rebuilds attempted per batch before giving up
_POOL_MAX_RESTARTS = 3


def live_pool_count() -> int:
    """How many :class:`ParallelExecutor` worker pools are alive right now.

    Every pool creation increments the counter and every ``close()`` /
    ``terminate()`` that actually tears a pool down decrements it, so a
    long-lived process (the mining service) can assert that no request
    leaked a pool: the count must return to its pre-request value once all
    in-flight work has drained.
    """
    with _LIVE_POOLS_LOCK:
        return _LIVE_POOLS


def _pool_opened() -> None:
    global _LIVE_POOLS
    with _LIVE_POOLS_LOCK:
        _LIVE_POOLS += 1


def _pool_closed() -> None:
    global _LIVE_POOLS
    with _LIVE_POOLS_LOCK:
        _LIVE_POOLS -= 1


def pool_restart_count() -> int:
    """How many worker pools have been rebuilt after a dead-worker detection.

    Monotone over the process lifetime; the mining service surfaces it
    through the ``stats``/``health`` ops so worker churn is observable from
    a client without log access.
    """
    with _LIVE_POOLS_LOCK:
        return _POOL_RESTARTS


def _pool_restarted() -> None:
    global _POOL_RESTARTS
    with _LIVE_POOLS_LOCK:
        _POOL_RESTARTS += 1

def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count.

    Args:
        workers: Explicit worker count, or ``None`` to resolve the
            ``workers`` plan knob (default 1).  The value ``0`` (or
            ``"auto"``) means "one worker per available CPU".

    Returns:
        A validated worker count ``>= 1``.

    >>> resolve_workers(3)
    3
    >>> resolve_workers(1)
    1
    """
    if workers is not None and not isinstance(workers, str):
        workers = int(workers)
    return resolve_knob("workers", workers)


def resolve_shards(shards: Optional[int] = None, workers: int = 1) -> int:
    """Resolve a shard count.

    Args:
        shards: Explicit shard count, or ``None`` to resolve the
            ``shards`` plan knob; when that is unset the shard count
            defaults to ``workers`` (so raising the worker count
            automatically engages the partitioned path).
        workers: The already-resolved worker count.

    Returns:
        A validated shard count ``>= 1``.

    >>> resolve_shards(4, workers=1)
    4
    >>> resolve_shards(None, workers=2)
    2
    """
    return resolve_knob("shards", shards, workers=workers)


def even_chunks(items: Sequence[Any], n_chunks: int) -> List[Sequence[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-equal runs.

    Order is preserved and no chunk is empty, so concatenating per-chunk
    results restores the original item order exactly.  The split arithmetic
    is :func:`repro.db.partition.shard_bounds` — candidate chunking and row
    sharding deliberately share one partitioning rule.

    >>> even_chunks([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    >>> even_chunks([1, 2], 5)
    [[1], [2]]
    """
    # Imported lazily: repro.db pulls this module in via its package
    # __init__, so a top-level import would be circular.
    from ..db.partition import shard_bounds

    if not len(items):
        return []
    return [
        items[start:stop] for start, stop in shard_bounds(len(items), n_chunks)
    ]


# -- worker-process kernels --------------------------------------------------------
# Pool tasks must be module-level functions (picklable under both the fork
# and spawn start methods).  Shard descriptors are resolved into views once
# per worker process by the pool initializer; tasks then reference them by
# index so a level evaluation ships only the candidate list.

_WORKER_SHARDS: Optional[Sequence[Any]] = None
#: attachment failure recorded by the initializer — raising there instead
#: would make the pool respawn (and re-fail) workers in a tight loop, so
#: the error is surfaced from the first task that needs the shards.
_WORKER_ATTACH_ERROR: Optional[str] = None

def _resolve_shard_entry(entry: Tuple[Any, ...]) -> Any:
    """Materialise one dispatch entry into a queryable shard view."""
    if entry[0] == "shm":
        from ..db.store import attach_shard_segment

        return attach_shard_segment(entry[1])
    from ..db.store import ColumnarStore

    _, directory, start, stop = entry
    return ColumnarStore.open(directory).view(start, stop)


def _install_worker_shards(payload: Optional[Sequence[Any]]) -> None:
    global _WORKER_SHARDS, _WORKER_ATTACH_ERROR
    # Fault probes belong to the coordinator; a forked worker inheriting an
    # active plan must not fire faults on its own schedule.
    faults.disable_in_process()
    _WORKER_SHARDS = None
    _WORKER_ATTACH_ERROR = None
    if payload is None:
        return
    try:
        _WORKER_SHARDS = [_resolve_shard_entry(entry) for entry in payload]
    except Exception as error:
        _WORKER_ATTACH_ERROR = f"{type(error).__name__}: {error}"


def _shard_method_task(payload: Tuple[int, str, tuple, dict]) -> Any:
    index, method, args, kwargs = payload
    if _WORKER_SHARDS is None:
        detail = _WORKER_ATTACH_ERROR or "worker pool initialized without shards"
        raise RuntimeError(f"shard attachment failed in worker: {detail}")
    return getattr(_WORKER_SHARDS[index], method)(*args, **kwargs)


def _dp_tail_task(payload: Tuple[List[np.ndarray], int]) -> np.ndarray:
    vectors, min_count = payload
    return frequent_probabilities_dp_batch(vectors, min_count)


def _dc_tail_task(payload: Tuple[List[np.ndarray], int, int]) -> np.ndarray:
    # ``span`` rides inside the payload: the coordinator resolves the
    # conv_span plan knob once and ships it, because contextvar-backed plan
    # scopes do not propagate into forked worker processes and the
    # crossover is bitwise-relevant (FFT round-off).
    vectors, min_count, span = payload
    return dc_tail_probabilities(vectors, min_count, span=span)


_EMPTY_VECTOR = np.empty(0, dtype=np.float64)
_EMPTY_VECTOR.flags.writeable = False


class ParallelExecutor:
    """Coordinator for one mining run's parallel work.

    The executor owns (lazily) a process pool and, optionally, the row
    shards of the database being mined.  It exposes exactly the operations
    the miners need — per-shard method fan-out with concatenation, and
    candidate-chunked DP / divide-and-conquer tail evaluation — all of which
    return results bitwise identical to their serial counterparts.

    Args:
        workers: Worker count (resolved through :func:`resolve_workers`).
            ``1`` keeps everything in-process; the chunking/merging code
            paths still run so serial and parallel runs share one code path.
        shard_views: Optional row shards (``repro.db.ColumnarPartition``
            shards or any objects exposing the queried methods).  Shipped to
            worker processes once via the pool initializer.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        shard_views: Optional[Sequence[Any]] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self._shard_views: Optional[List[Any]] = (
            list(shard_views) if shard_views is not None else None
        )
        self._pool = None
        self._payload: Optional[List[Any]] = None
        self._segments: List[Any] = []
        #: pools this executor rebuilt after detecting dead workers
        self.pool_restarts = 0

    # -- lifecycle ---------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """True when work is actually distributed to other processes."""
        return self.workers > 1

    @property
    def n_shards(self) -> int:
        return len(self._shard_views) if self._shard_views else 0

    def close(self) -> None:
        """Shut the worker pool down gracefully (idempotent).

        Waits for in-flight tasks to finish; use :meth:`terminate` when the
        run is being abandoned and outstanding work should be dropped.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            _pool_closed()
        self._release_segments()

    def terminate(self) -> None:
        """Kill the worker pool immediately (idempotent).

        The error-path shutdown: a graceful :meth:`close` would block on
        whatever tasks are still queued or running, so an exceptional exit
        SIGTERMs the workers and drops queued work instead of waiting for
        results that will never be consumed.  Also the recovery-path
        shutdown after a worker death — the executor's broken-pool
        handling has already reaped the dead workers by then, so the
        joining ``shutdown`` cannot deadlock (unlike the historical
        ``multiprocessing.Pool.terminate``, which blocked forever on a
        queue lock died-with by a SIGKILLed worker).
        """
        if self._pool is not None:
            for worker in list(self._pool._processes.values() or []):
                if worker.exitcode is None:
                    worker.terminate()
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            _pool_closed()
        self._release_segments()

    def _release_segments(self) -> None:
        """Unlink every shared-memory segment this executor exported.

        Runs on **both** shutdown paths (and is idempotent): a segment that
        outlives its executor is a leaked file in ``/dev/shm`` that no
        process will ever reclaim.  Workers are gone (or moribund) by the
        time this runs, so unlinking cannot strand a reader — attached
        mappings stay valid until the attaching process exits regardless.
        """
        for segment in self._segments:
            segment.destroy()
        self._segments = []
        self._payload = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # A mid-mine exception must not leak (or block on) a live pool:
        # every miner wraps its run in this context manager, so the
        # exceptional path terminates outstanding work instead of joining it.
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent timing
        # Safety net for executors abandoned without close(): drop the pool
        # rather than leaking worker processes until interpreter exit.
        try:
            self.terminate()
        except Exception:
            pass

    def _dispatch_payload(self) -> Optional[List[Any]]:
        """The per-shard descriptor list shipped through the pool initializer.

        Built once per pool lifetime and memoised.  Entry shapes (resolved
        by :func:`_resolve_shard_entry` inside each worker):

        * ``("store", directory, start, stop)`` — a memory-mapped shard;
          workers re-open the manifest.
        * ``("shm", descriptor)`` — an in-RAM shard exported into a
          shared-memory segment.  The exported
          :class:`~repro.db.store.ShardSegment` handles are retained on
          the executor for unlinking at shutdown.
        """
        if self._payload is not None:
            return self._payload
        if self._shard_views is None:
            return None
        payload: List[Any] = []
        for view in self._shard_views:
            source = getattr(view, "store_source", None)
            if source is not None:
                directory, start, stop = source
                payload.append(("store", directory, start, stop))
            else:
                from ..db.store import export_shard_segment

                segment = export_shard_segment(view)
                self._segments.append(segment)
                payload.append(("shm", segment.descriptor))
        self._payload = payload
        return payload

    def dispatch_payload_nbytes(self) -> int:
        """Pickled size of the initializer payload — the bytes a worker
        bootstrap actually ships per process under the spawn start method
        (under fork the descriptors are inherited, costing even less)."""
        return len(pickle.dumps(self._dispatch_payload()))

    def _verify_dispatch_sources(self, payload: Optional[List[Any]]) -> None:
        """Coordinator-side pre-flight of store-backed dispatch entries.

        A store directory that vanished between partitioning and pool
        creation would otherwise fail inside every worker's initializer —
        detect it here and fail the dispatch once, with a clear error.
        """
        for entry in payload or ():
            if entry[0] == "store":
                from ..db.store import MANIFEST_NAME

                directory = entry[1]
                if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
                    raise RuntimeError(
                        f"store directory vanished before fan-out: {directory!r} "
                        f"has no {MANIFEST_NAME}"
                    )

    def _ensure_pool(self):
        if self._pool is None:
            payload = self._dispatch_payload()
            self._verify_dispatch_sources(payload)
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            # concurrent.futures rather than multiprocessing.Pool: when a
            # worker dies, the executor marks itself broken and fails the
            # in-flight futures promptly, whereas Pool.map blocks forever
            # (the supervisor respawns the worker but the lost task's
            # result never arrives) and Pool.terminate can deadlock on a
            # queue lock the killed worker died holding.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_install_worker_shards,
                initargs=(payload,),
            )
            _pool_opened()
        return self._pool

    def _pool_is_degraded(self) -> bool:
        """Whether the live pool has lost a worker since creation.

        Either symptom suffices: the executor flagged itself broken (a
        death was noticed while futures were pending), or a worker process
        has its ``exitcode`` set (died idle — nothing was pending, so the
        executor has not noticed yet, but the next batch would break it).
        """
        pool = self._pool
        if pool is None:
            return False
        if getattr(pool, "_broken", False):
            return True
        processes = pool._processes
        return bool(processes) and any(
            worker.exitcode is not None for worker in processes.values()
        )

    def _kill_one_worker(self) -> None:
        """SIGKILL one live pool worker (the ``worker-crash`` fault site).

        Deterministically the lowest-PID worker, so a seeded plan kills the
        same pool member every run.
        """
        pool = self._pool
        processes = getattr(pool, "_processes", None) if pool is not None else None
        if not processes:  # pragma: no cover - workers spawn on first submit
            return
        victim = processes[min(processes)]
        os.kill(victim.pid, signal.SIGKILL)
        # Wait for the death to land: a batch that finished on the other
        # workers first would otherwise race past the degraded-pool check.
        victim.join(timeout=5.0)

    def _pooled_map(self, task, payloads: List[Any]) -> List[Any]:
        """Pooled ordered map with dead-worker detection, rebuild and resubmit.

        A lost worker fails the batch with ``BrokenProcessPool`` (or, if it
        died idle, leaves a corpse :meth:`_pool_is_degraded` spots); in
        both cases the pool is torn down and rebuilt, and an unfinished
        batch is resubmitted whole.  Safe because every pool task is a
        pure function of its payload — resubmission returns
        bitwise-identical results.  ``terminate()`` runs
        ``_release_segments()``, dropping the memoised dispatch payload, so
        the rebuilt pool re-exports fresh shared-memory segments — nothing
        leaks and nothing dangles.  Rebuilds are bounded: a crash-looping
        environment raises instead of retrying forever.
        """
        if faults.fire("task-latency"):
            time.sleep(faults.latency_seconds())
        restarts = 0
        while True:
            pool = self._ensure_pool()
            results: Optional[List[Any]] = None
            try:
                futures = [pool.submit(task, payload) for payload in payloads]
                if faults.fire("worker-crash"):
                    self._kill_one_worker()
                results = [future.result() for future in futures]
            except BrokenProcessPool:
                results = None
            if results is not None and not self._pool_is_degraded():
                return results
            self.terminate()
            self.pool_restarts += 1
            _pool_restarted()
            if results is not None:
                return results
            restarts += 1
            if restarts > _POOL_MAX_RESTARTS:
                raise RuntimeError(
                    f"worker pool lost workers {restarts} times on one batch "
                    f"(limit {_POOL_MAX_RESTARTS} rebuilds); giving up"
                )

    def _map(self, task, payloads: List[Any]) -> List[Any]:
        """Ordered map over payloads — in-process when serial, pooled otherwise."""
        if not self.parallel or len(payloads) <= 1:
            return [task(payload) for payload in payloads]
        return self._pooled_map(task, payloads)

    # -- shard fan-out -----------------------------------------------------------
    def map_shard_method(self, method: str, *args, **kwargs) -> List[Any]:
        """Call ``shard.<method>(*args, **kwargs)`` on every shard, in shard order.

        Pooled when the executor is parallel and there is more than one
        shard; in-process otherwise.
        """
        if not self._shard_views:
            raise RuntimeError("executor was created without shard views")
        if self.parallel and len(self._shard_views) > 1:
            payloads = [
                (index, method, args, kwargs)
                for index in range(len(self._shard_views))
            ]
            return self._pooled_map(_shard_method_task, payloads)
        return [getattr(view, method)(*args, **kwargs) for view in self._shard_views]

    def shard_occupancy_counts(
        self, candidates: Sequence[Tuple[int, ...]]
    ) -> np.ndarray:
        """Global supporting-row counts from per-shard bitmap popcounts.

        Every shard ANDs its own packed occupancy bitmaps (built lazily per
        worker process and reused across levels); occupancy is row-local,
        so summing the per-shard popcounts reproduces the unpartitioned
        counts exactly.
        """
        candidates = [tuple(candidate) for candidate in candidates]
        per_shard = self.map_shard_method("level_occupancy_counts", candidates)
        totals = np.zeros(len(candidates), dtype=np.int64)
        for counts in per_shard:
            totals += counts
        return totals

    def shard_vectors(
        self, candidates: Sequence[Tuple[int, ...]], min_count: float = 0.0
    ) -> List[np.ndarray]:
        """Compressed probability vectors of a level, extracted shard-parallel.

        Every shard evaluates the whole candidate list over its own rows;
        the per-shard compressed vectors are then concatenated in shard
        (i.e. row) order, which reproduces the unpartitioned view's vectors
        bitwise — per-transaction products are row-local and row order is
        preserved.

        ``min_count`` is the caller's sound stage-1 kill threshold: a
        candidate whose supporting-row count falls below it comes back as
        the empty vector without any float work.  The kill is two-step:
        per-shard occupancy counts are summed into the global count first
        (a shard must never kill against the global threshold on local
        evidence alone), then only the survivors fan out for float
        evaluation — identical kill decisions and survivor vectors to the
        unpartitioned cascade.
        """
        candidates = [tuple(candidate) for candidate in candidates]
        if min_count <= 0 or not candidates:
            return self._merged_shard_vectors(candidates)
        alive_mask = self.shard_occupancy_counts(candidates) >= min_count
        alive = [candidate for candidate, keep in zip(candidates, alive_mask) if keep]
        merged = iter(self._merged_shard_vectors(alive))
        return [next(merged) if keep else _EMPTY_VECTOR for keep in alive_mask]

    def _merged_shard_vectors(
        self, candidates: List[Tuple[int, ...]]
    ) -> List[np.ndarray]:
        per_shard = self.map_shard_method("batch_vectors", candidates)
        return [
            np.concatenate([shard_vectors[i] for shard_vectors in per_shard])
            for i in range(len(candidates))
        ]

    # -- candidate-chunked tail kernels --------------------------------------------
    def should_distribute(self, n_candidates: int) -> bool:
        """Whether a candidate batch is worth splitting across the pool."""
        return self.parallel and n_candidates >= 2

    def dp_tails(self, vectors: Sequence[np.ndarray], min_count: int) -> np.ndarray:
        """Candidate-chunked :func:`frequent_probabilities_dp_batch`.

        Chunks are evaluated with the identical serial kernel; a
        candidate's result depends only on its own vector, never on the
        other candidates of its chunk, so the concatenated result is
        bitwise equal to the single-batch evaluation.
        """
        vectors = list(vectors)
        if not self.should_distribute(len(vectors)):
            return _dp_tail_task((vectors, int(min_count)))
        chunks = even_chunks(vectors, self.workers)
        results = self._map(
            _dp_tail_task, [(list(chunk), int(min_count)) for chunk in chunks]
        )
        return np.concatenate(results) if results else np.zeros(0, dtype=float)

    def dc_tails(self, vectors: Sequence[np.ndarray], min_count: int) -> np.ndarray:
        """Candidate-chunked divide-and-conquer tail evaluation (FFT path)."""
        vectors = list(vectors)
        span = resolve_conv_span()  # coordinator-resolved, shipped to workers
        if not self.should_distribute(len(vectors)):
            return _dc_tail_task((vectors, int(min_count), span))
        chunks = even_chunks(vectors, self.workers)
        results = self._map(
            _dc_tail_task, [(list(chunk), int(min_count), span) for chunk in chunks]
        )
        return np.concatenate(results) if results else np.zeros(0, dtype=float)
